"""Polynomial arithmetic and number-theory helpers."""
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordlat import exactpoly
from coordlat.coordinator import MIN_RANK, LatticeType, coordinator
from coordlat.exactpoly import (
    ONE,
    X,
    ZERO,
    Polynomial,
    binom,
    derivative,
    double_factorial,
    eval_at,
    legendre,
    poly,
    power,
    primitive_integer_coeffs,
    series_expand,
    squarefree_decomposition,
    squarefree_part,
)

small_polys = st.lists(st.integers(-30, 30), min_size=1, max_size=7).map(poly)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_trailing_zeros_are_stripped():
    assert poly([1, 2, 0, 0]).degree == 1
    assert poly([0]).is_zero
    assert poly([]).is_zero


def test_basic_arithmetic():
    p = ONE + X
    assert (p * p).coeffs == (1, 2, 1)
    assert (p - p).is_zero
    assert (-p).coeffs == (-1, -1)
    assert (p * ZERO).is_zero
    assert p.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1, 2))
    q = poly([1, -1])
    assert p + q == poly([2])
    assert p - q == poly([0, 2])
    assert p * q == poly([1, 0, -1])


def test_power_matches_repeated_multiplication():
    p = poly([2, -1, 3])
    q = ONE
    for k in range(6):
        assert power(p, k) == q
        q = q * p
    with pytest.raises(ValueError):
        power(p, -1)


def test_pow_operator_is_power():
    assert poly([1, 1]) ** 3 == poly([1, 3, 3, 1])
    assert poly([1, 2]) ** 0 == ONE


def test_str_lists_the_nonzero_terms():
    assert str(poly([Fraction(1, 2), 0, -3, 1])) == "1/2 + -3*x^2 + x^3"
    assert str(poly([2, -1])) == "2 + -1*x"
    assert str(poly([0, 1, 0, 1])) == "x + x^3"
    assert str(ZERO) == "0"


def test_eval_method_is_eval_at():
    p = poly([Fraction(1, 2), 0, -3, 1])
    assert p.eval(Fraction(1, 3)) == Fraction(11, 54)
    assert p.eval(2) == Fraction(-7, 2)


def test_eval_exact_rational():
    p = poly([1, Fraction(1, 3)])
    assert eval_at(p, Fraction(3, 2)) == Fraction(3, 2)
    assert eval_at(poly([0, 0, 1]), Fraction(-2, 3)) == Fraction(4, 9)


def test_derivative():
    assert derivative(poly([5, 3, 0, 2])).coeffs == (3, 0, 6)
    assert derivative(ONE).is_zero


def test_binomial_outside_range_is_zero():
    assert binom(5, 2) == 10
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_primitive_integer_coeffs():
    p = poly([Fraction(1, 2), Fraction(3, 4)])
    assert primitive_integer_coeffs(p) == (2, 3)
    assert primitive_integer_coeffs(poly([-4, -6])) == (-2, -3)
    # constants collapse to their sign once content is stripped
    assert primitive_integer_coeffs(poly([7])) == (1,)


def test_clear_denominators_reads_every_fraction_input():
    ints, L = exactpoly._clear_denominators([Fraction(1, 2), "1/3", 0.25, 2, "0"])
    assert (ints, L) == ([6, 4, 3, 24, 0], 12)
    assert exactpoly._clear_denominators([]) == ([], 1)
    assert exactpoly._clear_denominators([Fraction(-3, 4), -2]) == ([-3, -8], 4)


def two_loop_primitive(p):
    """Reference: an lcm loop over the denominators, then a gcd loop."""
    if p.is_zero:
        return ()
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return tuple(v // g for v in ints)


@given(st.lists(rationals, max_size=8), st.sampled_from([1, 6, 35]))
@settings(max_examples=100, deadline=None)
@example([], 1)
@example([Fraction(1, 2), Fraction(-3, 4)], 1)  # negative leading coefficient
@example([Fraction(2, 3), 0, Fraction(4, 9)], 6)
def test_primitive_integer_coeffs_match_two_loop_reference(coeffs, content):
    p = poly(c * content for c in coeffs)
    got = primitive_integer_coeffs(p)
    assert got == two_loop_primitive(p)
    assert all(type(v) is int for v in got)
    if got:
        assert (got[-1] > 0) == (p.coeffs[-1] > 0)


def test_squarefree_decomposition_known_factors():
    # x^2 (x - 1): factors come out in ascending multiplicity order
    p = poly([0, 0, -1, 1])
    factors = squarefree_decomposition(p)
    assert [(f.coeffs, m) for f, m in factors] == [((-1, 1), 1), ((0, 1), 2)]

    sq = poly([1, 2, 1])
    assert squarefree_decomposition(sq) == ((poly([1, 1]), 2),)


def test_squarefree_part_and_profile():
    p = poly([0, 0, -1, 1])
    sf, profile = squarefree_part(p)
    assert sf == poly([0, -1, 1]) or sf == poly([0, 1, -1]).scale(-1)
    assert profile == ((1, 2), (1, 1))

    sf2, profile2 = squarefree_part(poly([-2, 0, 1]))
    assert sf2.degree == 2
    assert profile2 == ((2, 1),)


def test_series_expansion():
    assert series_expand(ONE, 1, 5) == (1, 1, 1, 1, 1, 1)
    # (1 + 4x + x^2) / (1-x)^2
    assert series_expand(poly([1, 4, 1]), 2, 3) == (1, 6, 12, 18)
    with pytest.raises(ValueError):
        series_expand(ONE, 0, 3)


def binomial_series(h, d, K):
    # coefficient k of h / (1-x)^d is sum_j h_j * binom(d-1+k-j, d-1)
    out = []
    for k in range(K + 1):
        acc = Fraction(0)
        for j, hj in enumerate(h.coeffs):
            if j > k:
                break
            acc += hj * binom(d - 1 + k - j, d - 1)
        out.append(acc)
    return tuple(out)


@given(
    st.lists(rationals, max_size=13).map(poly),
    st.integers(1, 12),
    st.integers(0, 40),
)
@settings(max_examples=150)
def test_series_by_prefix_sums_matches_binomial_sums(h, d, K):
    got = series_expand(h, d, K)
    assert got == binomial_series(h, d, K)
    assert all(type(c) is Fraction for c in got)


def test_legendre_first_values():
    assert legendre(0) == ONE
    assert legendre(1) == X
    assert legendre(2).coeffs == (Fraction(-1, 2), 0, Fraction(3, 2))
    assert legendre(3).coeffs == (0, Fraction(-3, 2), 0, Fraction(5, 2))


@lru_cache(maxsize=None)
def legendre_by_recurrence(n):
    """P_n by the three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}."""
    if n < 2:
        return (ONE, X)[n]
    k = n - 1
    up = (X * legendre_by_recurrence(k)).scale(Fraction(2 * k + 1, k + 1))
    return up - legendre_by_recurrence(k - 1).scale(Fraction(k, k + 1))


def test_legendre_explicit_sum_matches_the_recurrence():
    for n in range(81):
        p = legendre(n)
        assert p == legendre_by_recurrence(n), n
        assert p.degree == n and eval_at(p, 1) == 1
        assert all(type(c) is Fraction for c in p.coeffs)


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: legendre(-1), ValueError, "legendre needs n >= 0, got -1"),
        (lambda: series_expand(ONE, 1, -1), ValueError, "series_expand needs K >= 0, got -1"),
        (lambda: exactpoly._int_exact_div([1, 1], [0, 2]), ArithmeticError, "division is not exact"),
        (lambda: exactpoly._int_exact_div([1, 1], []), ZeroDivisionError, "division by zero polynomial"),
        (lambda: squarefree_decomposition(ZERO), ValueError,
         "zero polynomial has no squarefree decomposition"),
    ],
    ids=["legendre", "series_expand", "inexact_div", "div_by_zero", "squarefree_of_zero"],
)
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc and str(err.value) == message


def test_edge_values():
    assert poly([1, 2]).coeff(2) == 0 and poly([1, 2]).coeff(-1) == 0
    assert squarefree_decomposition(poly([5])) == ()


@given(small_polys, small_polys, rationals)
@settings(max_examples=60)
def test_product_evaluates_pointwise(p, q, t):
    assert eval_at(p * q, t) == eval_at(p, t) * eval_at(q, t)


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_degree_of_product(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(small_polys)
@settings(max_examples=40)
def test_squarefree_factors_multiply_back(p):
    if p.is_zero or p.degree == 0:
        return
    parts = squarefree_decomposition(p)
    prod = ONE
    for f, m in parts:
        prod = prod * power(f, m)
    # equal up to the rational content removed by the factorization
    lead = p.coeffs[-1] / prod.coeffs[-1]
    assert prod.scale(lead) == p


def _positive_primitive(p):
    c = list(primitive_integer_coeffs(p))
    return c if c[-1] > 0 else [-x for x in c]


nonconstant = small_polys.filter(lambda p: p.degree >= 1)


@given(nonconstant, nonconstant)
@settings(max_examples=60, deadline=None)
def test_modular_certificate_matches_integer_gcds(g, h):
    for p in (g * g * h, h):
        c = _positive_primitive(p)
        # the certificate is sound: it never passes a polynomial with a
        # repeated factor, and g^2 h always has one
        if exactpoly._squarefree_mod_prime(c):
            assert len(exactpoly._int_gcd(c, exactpoly._int_derivative(c))) == 1
            assert p is h
        assert squarefree_decomposition(p) == exactpoly._yun(c)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6, unique=True), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_distinct_roots_are_certified_squarefree(roots, scale):
    p = poly([scale])
    for r in roots:
        p = p * poly([-r, 1])
    c = _positive_primitive(p)
    assert exactpoly._squarefree_mod_prime(c)
    assert squarefree_decomposition(p) == exactpoly._yun(c) == ((poly(c), 1),)


def test_closed_forms_skip_the_integer_gcds(monkeypatch):
    def no_yun(c):
        raise AssertionError("integer gcd path taken")

    monkeypatch.setattr(exactpoly, "_yun", no_yun)
    for tag, n in (("A", 30), ("B", 30), ("C", 30), ("D", 30)):
        h = coordinator(LatticeType(tag, n)).poly
        assert squarefree_decomposition(h) == ((h, 1),)


def test_leading_coefficient_divisible_by_the_prime_falls_back(monkeypatch):
    q = exactpoly._SQF_PRIME
    calls = []
    yun = exactpoly._yun
    monkeypatch.setattr(exactpoly, "_yun", lambda c: calls.append(c) or yun(c))
    p = poly([-1, 0, q])  # q x^2 - 1, squarefree
    assert not exactpoly._squarefree_mod_prime(list(p.coeffs))
    assert squarefree_decomposition(p) == ((p, 1),)
    # (q x + 1)^2 (x - 2) reduces to x - 2 mod q, which is squarefree;
    # only the leading-coefficient test stops a false certificate
    line = poly([1, q])
    p = line * line * poly([-2, 1])
    assert not exactpoly._squarefree_mod_prime(list(primitive_integer_coeffs(p)))
    assert squarefree_decomposition(p) == ((poly([-2, 1]), 1), (line, 2))
    assert len(calls) == 2


def test_squarefree_but_not_modulo_the_prime_goes_through_yun(monkeypatch):
    q = exactpoly._SQF_PRIME
    calls = []
    yun = exactpoly._yun
    monkeypatch.setattr(exactpoly, "_yun", lambda c: calls.append(c) or yun(c))
    # x^2 - q is x^2 modulo q, which shares the factor x with 2x
    p = poly([-q, 0, 1])
    assert not exactpoly._squarefree_mod_prime([-q, 0, 1])
    assert squarefree_decomposition(p) == ((p, 1),)
    # and with a square of it the undecided certificate still splits right
    assert squarefree_decomposition(p * p * poly([1, 1])) == ((poly([1, 1]), 1), (p, 2))
    assert len(calls) == 2


# palindromes: products of x^2 - y x + 1, whose roots pair x with 1/x
# ((x -/+ 1)^2 at y = +-2), and of x + 1, each factor maybe squared
palindromes = st.lists(
    st.tuples(
        st.one_of(st.integers(-6, 6).map(lambda y: poly([1, -y, 1])), st.just(poly([1, 1]))),
        st.integers(1, 2),
    ),
    min_size=1,
    max_size=6,
).map(lambda fs: math.prod((f**k for f, k in fs), start=ONE))


@given(palindromes, st.integers(1, 4))
@settings(max_examples=150, deadline=None)
@example(poly([1, 2, 1]), 1)  # (x + 1)^2: g = y + 2 vanishes at -2
@example(poly([1, -2, 1]) * poly([1, 1]), 1)  # odd degree, (x - 1)^2 in c1
@example(poly([1, 1]) ** 3, 1)  # odd degree, (x + 1)^2 in c1
def test_palindromes_are_tested_on_half_their_degree(p, scale):
    c = _positive_primitive(p.scale(scale))
    assert c == c[::-1]
    assert squarefree_decomposition(p.scale(scale)) == exactpoly._yun(c)
    # x^m g(x + 1/x) expands back to c, or to c / (x + 1) at odd degree
    if len(c) % 2 == 0:
        c = exactpoly._int_exact_div(c, [1, 1])
    q = exactpoly._SQF_PRIME
    g = exactpoly._palindrome_half([v % q for v in c], q)
    m = len(g) - 1
    back = [0] * (2 * m + 1)
    for j, gj in enumerate(g):
        for i in range(j + 1):  # x^m (x + 1/x)^j
            back[m + j - 2 * i] += gj * binom(j, i)
    assert [v % q for v in back] == [v % q for v in c]


def test_closed_forms_of_a_c_d_skip_the_full_degree_euclid(monkeypatch):
    # h_A, h_C and h_D are palindromes, h_B is not: only B runs Euclid
    # on c and c' at full degree
    degrees = []
    euclid = exactpoly._gf_squarefree
    monkeypatch.setattr(
        exactpoly, "_gf_squarefree", lambda a, q: degrees.append(len(a) - 1) or euclid(a, q)
    )
    monkeypatch.setattr(exactpoly, "_yun", None)
    for tag in "ABCD":
        # B1 = A1 and B2 = C2 are palindromes; D2 = (1 + x)^2 takes Yun
        for n in range(1 if tag in "AC" else 3, 61):
            h = coordinator(LatticeType(tag, n)).poly
            degrees.clear()
            assert squarefree_decomposition(h) == ((h, 1),)
            assert degrees == [n if tag == "B" else n // 2], f"{tag}{n}"


def negate_prem(a, b):
    """Reference: lb r - lr x^s b per step, negated at the end after an odd count of lb < 0."""
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    negate = False
    while len(r) - 1 >= db:
        lr = r.pop()
        r = [lb * c for c in r]
        shift = len(r) - db
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= lr * c
        while r and r[-1] == 0:
            r.pop()
        if lb < 0:
            negate = not negate
        if not r:
            break
    return [-x for x in r] if negate else r


int_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(lambda c: c[-1] != 0)


@given(int_polys, int_polys, int_polys)
@settings(max_examples=100, deadline=None)
@example([1, 2, 3, 4], [1, -2], [1])  # three steps by a negative leading coefficient
@example([0, 1, 0, 1], [5, 0, -3], [2, 1])  # two such steps, and a shared factor
@example([3], [1, 1], [-1, 0, 1])  # a dividend below the divisor's degree
def test_prem_matches_the_negating_reference(a, b, g):
    a = [int(v) for v in (poly(a) * poly(g)).coeffs]
    b = [int(v) for v in (poly(b) * poly(g)).coeffs]
    assert exactpoly._int_prem(a, b) == negate_prem(a, b)
    chain, gcd = exactpoly._int_prs(a, b), exactpoly._int_gcd(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactpoly, "_int_prem", negate_prem)
        assert exactpoly._int_prs(a, b) == chain
        assert exactpoly._int_gcd(a, b) == gcd


@pytest.mark.parametrize("tag", "ABCD")
def test_closed_forms_decompose_as_yun_does(tag):
    for n in range(MIN_RANK[tag], 61):
        h = coordinator(LatticeType(tag, n)).poly
        c = list(primitive_integer_coeffs(h))
        assert squarefree_decomposition(h) == exactpoly._yun(c), f"{tag}{n}"


def test_rank_two_d_keeps_its_double_root():
    from coordlat.realroots import is_real_rooted

    h = coordinator(LatticeType("D", 2)).poly
    assert squarefree_decomposition(h) == ((poly([1, 1]), 2),)
    rep = is_real_rooted(h)
    assert (rep.distinct_real, rep.real_with_multiplicity, rep.is_real_rooted) == (1, 2, True)
