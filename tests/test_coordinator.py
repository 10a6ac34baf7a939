"""Closed-form coordinator polynomials for the classical families."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordlat.coordinator import (
    _CLOSED_FORMS,
    CoordinatorPolynomial,
    LatticeType,
    UnsupportedTypeError,
    coordinator,
    coordinator_product,
    legendre_identity_check,
    type_b_coefficient_ratios,
)
from coordlat.exactpoly import ONE, ZERO, binom, legendre, poly


def coeffs(tag, n):
    return [int(c) for c in coordinator(LatticeType(tag, n)).poly.coeffs]


def test_small_closed_forms():
    assert coeffs("A", 1) == [1, 1]
    assert coeffs("A", 2) == [1, 4, 1]
    assert coeffs("A", 3) == [1, 9, 9, 1]
    assert coeffs("B", 2) == [1, 6, 1]
    assert coeffs("C", 2) == [1, 6, 1]
    assert coeffs("C", 3) == [1, 15, 15, 1]
    assert coeffs("D", 4) == [1, 20, 54, 20, 1]


def test_closed_forms_against_direct_binomial_sums():
    # recompute every family straight from the defining sums
    for n in range(1, 25):
        assert coeffs("A", n) == [binom(n, k) ** 2 for k in range(n + 1)]
        assert coeffs("C", n) == [binom(2 * n, 2 * k) for k in range(n + 1)]
        b = [binom(2 * n + 1, 2 * k) for k in range(n + 1)]
        for k in range(n + 1):
            b[k] -= 2 * n * binom(n - 1, k - 1)
        assert coeffs("B", n) == b
    for n in range(2, 25):
        d = [binom(2 * n, 2 * k) for k in range(n + 1)]
        for k in range(n + 1):
            d[k] -= 2 * n * binom(n - 2, k - 1)
        assert coeffs("D", n) == d


def test_type_validation():
    with pytest.raises(ValueError):
        LatticeType("A", 0)
    with pytest.raises(ValueError):
        LatticeType("D", 1)
    with pytest.raises(ValueError):
        LatticeType("Z", 3)
    with pytest.raises(ValueError):
        LatticeType("G2", 3)
    assert LatticeType("G2").rank == 2
    assert LatticeType("E8").rank == 8
    assert str(LatticeType("D", 4)) == "D4"
    assert str(LatticeType("F4")) == "F4"


def test_exceptional_types_have_no_closed_form():
    with pytest.raises(UnsupportedTypeError):
        coordinator(LatticeType("G2"))
    with pytest.raises(UnsupportedTypeError):
        coordinator(LatticeType("E8"))


def test_invariants_enforced_on_construction():
    with pytest.raises(ValueError):
        CoordinatorPolynomial((LatticeType("A", 1),), 1, poly([2, 1]))
    with pytest.raises(ValueError):
        CoordinatorPolynomial((LatticeType("A", 1),), 1, poly([1, 1, 1]))


@pytest.mark.parametrize("tag,start", [("A", 1), ("C", 1), ("D", 2)])
def test_palindromic_families(tag, start):
    for n in range(start, 40):
        c = coeffs(tag, n)
        assert c == c[::-1]


def test_type_b_not_palindromic_beyond_rank_two():
    # rank 1 and 2 coincide with palindromic families; from rank 3 on
    # the correction term breaks the symmetry
    assert coeffs("B", 1) == [1, 1]
    assert coeffs("B", 2) == coeffs("B", 2)[::-1]
    for n in range(3, 20):
        c = coeffs("B", n)
        assert c != c[::-1]


def test_product_of_types():
    prod = coordinator_product([LatticeType("A", 1), LatticeType("A", 1)])
    assert prod.rank == 2
    assert [int(c) for c in prod.poly.coeffs] == [1, 2, 1]
    assert prod.poly == coordinator(LatticeType("D", 2)).poly


def test_coefficient_ratio_identity():
    # multiplying the ratio sequence back by binomials gives the raw
    # coefficients, here spot-checked at small ranks
    for n in range(1, 12):
        ratios = type_b_coefficient_ratios(n)
        hb = coordinator(LatticeType("B", n)).poly.coeffs
        assert len(ratios) == n + 1
        for k in range(n + 1):
            assert binom(n, k) * ratios[k] == hb[k]


def test_coefficient_ratios_are_rational_and_positive():
    for r in type_b_coefficient_ratios(9):
        assert isinstance(r, Fraction)
        assert r > 0


def test_legendre_identity_small():
    for n in range(1, 12):
        assert legendre_identity_check(n)


def expanded_legendre_identity(n):
    # sum_k c_k (1+x)^k (1-x)^(n-k), expanded in full, against h_A
    plus_pows, minus_pows = [ONE], [ONE]
    for _ in range(n):
        plus_pows.append(plus_pows[-1] * poly([1, 1]))
        minus_pows.append(minus_pows[-1] * poly([1, -1]))
    acc = ZERO
    for k, ck in enumerate(legendre(n).coeffs):
        if ck:
            acc = acc + (plus_pows[k] * minus_pows[n - k]).scale(ck)
    return acc == coordinator(LatticeType("A", n)).poly


def test_legendre_identity_at_points_matches_the_expansion(monkeypatch):
    for n in range(1, 41):
        assert legendre_identity_check(n) is expanded_legendre_identity(n) is True
    real = _CLOSED_FORMS["A"]

    def raised(n):
        cs = list(real(n).coeffs)
        cs[n // 2] += 1
        return poly(cs)

    def plus_vanishing(n):
        # + x (x+1) ... (x+n-1), zero at x = -1, ..., -(n-1)
        return real(n) + math.prod((poly([m, 1]) for m in range(n)), start=ONE)

    for corrupted in (raised, plus_vanishing):
        monkeypatch.setitem(_CLOSED_FORMS, "A", corrupted)
        for n in range(2, 13):
            assert legendre_identity_check(n) is expanded_legendre_identity(n) is False


def test_coefficients_are_the_polynomial_coeffs():
    h = coordinator(LatticeType("D", 4))
    assert h.coefficients() == h.poly.coeffs == (1, 20, 54, 20, 1)
    assert all(type(c) is Fraction for c in h.coefficients())


def test_constant_term_and_degree():
    for tag, lo in [("A", 1), ("B", 1), ("C", 1), ("D", 2)]:
        for n in range(lo, 15):
            cp = coordinator(LatticeType(tag, n))
            assert cp.poly.coeff(0) == 1
            assert cp.poly.degree == cp.rank == n


@given(st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_a_and_c_coefficient_symmetry(n):
    for tag in ("A", "C"):
        c = coeffs(tag, n)
        assert c[0] == c[-1] == 1
        assert all(v > 0 for v in c)


A2 = (LatticeType("A", 2),)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: coordinator_product([]), "product needs at least one lattice type"),
        (lambda: type_b_coefficient_ratios(0), "needs n >= 1, got 0"),
        (lambda: legendre_identity_check(0), "needs n >= 1, got 0"),
        (lambda: CoordinatorPolynomial(A2, 2, poly([1, 0, 1])), "coordinator coefficients must be positive"),
        (lambda: CoordinatorPolynomial(A2, 2, poly([1, -4, 1])), "coordinator coefficients must be positive"),
    ],
    ids=["empty_product", "b_ratios_0", "legendre_identity_0", "zero_coefficient", "negative_coefficient"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


def test_ltype_of_a_product_is_the_tuple_of_its_types():
    a1, b2 = LatticeType("A", 1), LatticeType("B", 2)
    assert coordinator_product([a1, b2]).ltype == (a1, b2)
    assert coordinator_product([a1]).ltype == a1
