"""Coefficient-sequence checks, cross-validated by a naive minor scan."""
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordlat.coordinator import LatticeType, coordinator
from coordlat.exactpoly import Polynomial
from coordlat.realroots import is_real_rooted
from coordlat.seqanalysis import (
    InternalZeroWitness,
    LogConcavityWitness,
    MinorWitness,
    UnimodalityWitness,
    _first_negative_minor,
    check_log_concave,
    check_no_internal_zeros,
    check_unimodal,
    pf_minor_check,
)


def naive_minor_scan(seq, max_order):
    """Every minor of every square size up to max_order, no shortcuts."""
    vals = [Fraction(v) for v in seq]
    n = len(vals) - 1

    def entry(i, j):
        d = i - j
        return vals[d] if 0 <= d <= n else Fraction(0)

    def det(rows, cols):
        s = len(rows)
        if s == 1:
            return entry(rows[0], cols[0])
        total = Fraction(0)
        for t in range(s):
            sub = det(rows[1:], cols[:t] + cols[t + 1 :])
            total += (-1) ** t * entry(rows[0], cols[t]) * sub
        return total

    P = n + max_order
    for order in range(1, max_order + 1):
        for R in combinations(range(P), order):
            for C in combinations(range(P), order):
                if det(R, C) < 0:
                    return False
    return True


def test_log_concave_binomials():
    assert check_log_concave([1, 4, 6, 4, 1]).holds
    assert check_log_concave([1]).holds
    assert check_log_concave([5, 5, 5]).holds


def test_log_concave_failure_carries_first_witness():
    v = check_log_concave([1, 1, 2])
    assert not v.holds
    assert v.witness == LogConcavityWitness(1, Fraction(1), Fraction(1), Fraction(2))
    v2 = check_log_concave([1, 1, 2, 9])
    assert v2.witness.index == 1


def test_log_concave_witness_on_rational_and_mixed_entries():
    fractions = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]
    expected = LogConcavityWitness(1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    for seq in (fractions, [0.5, "1/3", Fraction(1, 4), "0.2"]):
        w = check_log_concave(seq).witness
        assert w == expected
        assert all(type(v) is Fraction for v in (w.left, w.center, w.right))
    v = check_unimodal([0.5, "1/3", Fraction(1, 2)])
    assert v.witness == UnimodalityWitness(0, 1)


def test_log_concave_rejects_negative_entries():
    with pytest.raises(ValueError):
        check_log_concave([1, -1, 1])


def test_unimodal():
    assert check_unimodal([1, 3, 3, 2]).holds
    assert check_unimodal([1, 1, 1]).holds
    assert check_unimodal([3, 2, 1]).holds
    v = check_unimodal([2, 1, 2])
    assert not v.holds
    assert v.witness == UnimodalityWitness(0, 1)


def test_internal_zeros():
    assert check_no_internal_zeros([1, 2, 3]).holds
    assert check_no_internal_zeros([0, 0, 1, 2]).holds
    assert check_no_internal_zeros([1, 2, 0]).holds
    v = check_no_internal_zeros([1, 0, 1])
    assert not v.holds
    assert v.witness == InternalZeroWitness(1)


@pytest.mark.parametrize(
    "seq, index",
    [
        ([1, 2, 3], None),
        ([0, 0, 1, 2], None),
        ([1, 2, 0], None),
        ([0, 0], None),
        ([], None),
        ([1, 0, 1], 1),
        ([0, 3, 0, 0, 5, 0], 2),
        ([Fraction(1, 3), 0, Fraction(-2, 5)], 1),
        (["1", "0", "1"], 1),
    ],
)
def test_internal_zeros_same_for_int_fraction_and_mixed(seq, index):
    # entries are read as Fraction reads them, as in the other checks,
    # so the string "0" is a zero
    forms = [
        seq,
        tuple(Fraction(v) for v in seq),
        [Fraction(v) if i % 2 else v for i, v in enumerate(seq)],
    ]
    for form in forms:
        v = check_no_internal_zeros(form)
        assert v.holds == (index is None)
        assert v.witness == (None if index is None else InternalZeroWitness(index))


def test_pf_all_ones_of_length_three_fails_at_order_three():
    v = pf_minor_check([1, 1, 1], 3)
    assert not v.holds
    assert v.witness == MinorWitness((1, 2, 3), (0, 1, 2), Fraction(-1))
    # order two alone cannot see it
    assert pf_minor_check([1, 1, 1], 2).holds


def test_pf_binomial_rows_pass():
    assert pf_minor_check([1, 4, 6, 4, 1], 3).holds
    assert pf_minor_check([1, 3, 3, 1], 4).holds


def test_pf_order_clamped_to_matrix_size():
    v = pf_minor_check([1, 2], 5)
    assert v.holds
    assert v.clamped
    assert not pf_minor_check([1, 2, 1], 3).clamped


def test_pf_rational_entries_scaled_witness():
    v = pf_minor_check([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)], 3)
    assert not v.holds
    assert v.witness.determinant == Fraction(-1, 8)


def test_truncated_geometric_passes_order_two_only():
    # adjacent 2x2 minors of [4, 2, 1] vanish, so order 2 holds; the
    # truncation has complex roots, and order 3 finds a negative minor
    assert pf_minor_check([4, 2, 1], 2).holds
    v = pf_minor_check([4, 2, 1], 3)
    assert not v.holds
    assert v.witness.determinant == Fraction(-8)


def test_pf_rejects_bad_input():
    with pytest.raises(ValueError):
        pf_minor_check([1, -2, 1], 3)
    with pytest.raises(ValueError):
        pf_minor_check([], 3)
    with pytest.raises(ValueError):
        pf_minor_check([1, 2, 1], 0)


def test_pf_bareiss_path_agrees_with_naive_scan():
    seqs = [
        [1, 1, 1, 1],
        [1, 3, 3, 1],
        [1, 2, 2, 2, 1],
        [2, 1, 0, 1],
        [1, 0, 0, 1],
    ]
    for s in seqs:
        assert pf_minor_check(s, 4).holds == naive_minor_scan(s, 4)


def test_failing_witness_is_a_real_negative_minor():
    v = pf_minor_check([1, 1, 1, 1], 4)
    scan = naive_minor_scan([1, 1, 1, 1], 4)
    assert v.holds == scan
    if not v.holds:
        w = v.witness
        vals = [1, 1, 1, 1]

        def entry(i, j):
            d = i - j
            return vals[d] if 0 <= d <= 3 else 0

        mat = [[entry(r, c) for c in w.cols] for r in w.rows]
        acc = Fraction(0)
        for perm_sign, perm in _perms(len(mat)):
            term = Fraction(perm_sign)
            for i, j in enumerate(perm):
                term *= mat[i][j]
            acc += term
        assert acc == w.determinant < 0


def _perms(s):
    from itertools import permutations

    base = list(range(s))
    for p in permutations(base):
        inv = sum(1 for i in range(s) for j in range(i + 1, s) if p[i] > p[j])
        yield (-1) ** inv, p


@given(st.lists(st.integers(0, 4), min_size=2, max_size=5), st.integers(2, 3))
@settings(max_examples=50, deadline=None)
def test_pf_matches_naive_scan(seq, order):
    assert pf_minor_check(seq, order).holds == naive_minor_scan(seq, order)


@given(st.lists(st.integers(0, 50), min_size=3, max_size=8))
@settings(max_examples=60)
def test_log_concave_implication_to_unimodal(seq):
    # a log-concave sequence without internal zeros is unimodal
    lc = check_log_concave(seq)
    nz = check_no_internal_zeros(seq)
    if lc.holds and nz.holds:
        assert check_unimodal(seq).holds


def brute_force_pf(seq, max_order):
    """(holds, rows, cols, det, clamped) as pf_minor_check(seq, max_order) reports them.

    Scans every square minor of order 2..max_order of the (n+k) x (n+k)
    Toeplitz matrix, k = max_order clamped to n + 1, in (order, rows,
    cols) lexicographic order; the first negative minor is the witness.
    Determinants are Leibniz sums over the entries scaled to integers.
    """
    vals = [Fraction(v) for v in seq]
    n = len(vals) - 1
    k = min(max_order, n + 1)
    lcm = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * lcm) for v in vals]
    P = n + k
    mat = [[ints[i - j] if 0 <= i - j <= n else 0 for j in range(P)] for i in range(P)]
    for order in range(2, k + 1):
        perms = list(_perms(order))
        for R in combinations(range(P), order):
            sub = [mat[r] for r in R]
            for C in combinations(range(P), order):
                det = 0
                for sign, perm in perms:
                    term = sign
                    for row, j in zip(sub, perm):
                        term *= row[C[j]]
                    det += term
                if det < 0:
                    return False, R, C, Fraction(det, lcm**order), k < max_order
    return True, None, None, None, k < max_order


entries = st.one_of(st.integers(0, 6), st.fractions(0, 6, max_denominator=4))


@given(st.integers(0, 2), st.lists(entries, min_size=1, max_size=7))
@settings(max_examples=150, deadline=None)
@example(0, [1, 0, 0, 1])  # log-concave, but an internal zero makes it fail
@example(2, [1, 2, 1])  # leading zeros, still PF2
@example(0, [Fraction(1, 2), 1, Fraction(1, 3)])
@example(0, [3])
def test_pf2_matches_brute_force_minors(leading_zeros, seq):
    seq = [0] * leading_zeros + seq
    v = pf_minor_check(seq, 2)
    w = v.witness
    got = (v.holds,) + ((w.rows, w.cols, w.determinant) if w else (None, None, None))
    assert got + (v.clamped,) == brute_force_pf(seq, 2)



def _product_of_linear_factors(pairs):
    """Coefficients of the product of (b + c x); PF at every order."""
    seq = [1]
    for b, c in pairs:
        seq = [b * x + c * y for x, y in zip(seq + [0], [0] + seq)]
    return seq


sequences = st.one_of(
    st.lists(entries, min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3).map(
        _product_of_linear_factors
    ),
)


@given(st.integers(2, 4), st.integers(0, 2), sequences, st.integers(0, 1))
@settings(max_examples=150, deadline=None)
@example(4, 0, [1, 4, 8, 7], 1)  # PF3, fails at order 4 only
@example(4, 0, [1, 3, 4, 3], 0)
@example(3, 1, [1, 3, 3, 1], 0)  # leading zero, PF at every order
@example(4, 0, [2, 0, 1, 1], 0)  # internal zero
@example(3, 0, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)], 0)
@example(4, 2, [0, 0], 0)
def test_pf_matches_brute_force_minors(order, leading_zeros, seq, trailing_zeros):
    seq = [0] * leading_zeros + list(seq) + [0] * trailing_zeros
    v = pf_minor_check(seq, order)
    w = v.witness
    got = (v.holds,) + ((w.rows, w.cols, w.determinant) if w else (None, None, None))
    assert got + (v.clamped,) == brute_force_pf(seq, order)


def test_pinned_witnesses():
    assert pf_minor_check([1, 4, 8, 7, 0], 3).holds
    v = pf_minor_check([1, 4, 8, 7, 0], 4)
    assert (v.holds, v.clamped) == (False, False)
    assert v.witness == MinorWitness((1, 2, 3, 4), (0, 1, 2, 3), Fraction(-8))
    v = pf_minor_check([1, 3, 4, 3], 4)
    assert v.witness == MinorWitness((1, 2, 4, 5), (0, 1, 2, 3), Fraction(-1))
    v = pf_minor_check([1] * 30, 3)
    assert v.witness == MinorWitness((1, 2, 30), (0, 1, 2), Fraction(-1))


def test_witness_at_the_lowest_failing_order():
    # each fails below the requested order, with the witness found there
    for seq, order, rows, det in [
        ([1] * 8, 4, (1, 2, 8), -1),
        ([1, 4, 8, 7, 0], 5, (1, 2, 3, 4), -8),
        ([1, 2, 2, 1, 1], 4, (3, 4), -1),
    ]:
        v = pf_minor_check(seq, order)
        assert (v.holds, v.property) == (False, f"pf_order_{order}")
        assert v.witness == MinorWitness(rows, tuple(range(len(rows))), Fraction(det))


def test_perturbed_a30_witness():
    # A30's coefficients with a_15 raised 10% are PF2 but not PF3
    h = list(coordinator(LatticeType("A", 30)).poly.coeffs)
    h[15] = h[15] * 11 // 10
    v = pf_minor_check(h, 3)
    det = Fraction(-30677085150727932287548854388386783877936440000)
    assert v.witness == MinorWitness((12, 15, 16), (0, 1, 2), det)


@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=4, max_size=7),
    st.integers(0, 7),
    st.fractions(Fraction(-1, 3), Fraction(1, 3), max_denominator=9),
)
@settings(max_examples=80, deadline=None)
def test_perturbed_products_match_brute_force_minors(pairs, index, shift):
    # one entry of a PF sequence moved by up to a third of its value
    seq = _product_of_linear_factors(pairs)
    i = index % len(seq)
    seq[i] += math.floor(shift * seq[i])
    v = pf_minor_check(seq, 3)
    w = v.witness
    got = (v.holds,) + ((w.rows, w.cols, w.determinant) if w else (None, None, None))
    assert got + (v.clamped,) == brute_force_pf(seq, 3)


def rescanning_pf(seq, max_order):
    """(holds, rows, cols, det, clamped) by the order-k scan, then a fresh scan per order from 3.

    Log-concavity sends an order-2 failure to the order-2 scan.  When the
    order-k scan fails, every order from 3 up is scanned afresh, and the
    first that fails gives the witness.
    """
    vals = [Fraction(v) for v in seq]
    lcm = math.lcm(*(v.denominator for v in vals))
    a = [int(v * lcm) for v in vals]
    k = min(max_order, len(a))
    if k < 2:
        return True, None, None, None, k < max_order
    if not (check_log_concave(a).holds and check_no_internal_zeros(a).holds):
        order, hit = 2, _first_negative_minor(a, 2)
    elif k == 2 or _first_negative_minor(a, k) is None:
        return True, None, None, None, k < max_order
    else:
        order = next(s for s in range(3, k + 1) if _first_negative_minor(a, s))
        hit = _first_negative_minor(a, order)
    rows, det = hit
    return False, rows, tuple(range(order)), Fraction(det, lcm**order), k < max_order


@st.composite
def late_failures(draw):
    # a PF product with one entry moved by at most a tenth, so order 2
    # mostly holds; up to 12 entries at order 5, fewer above
    k = draw(st.integers(5, 7))
    room = {5: 12, 6: 10, 7: 8}[k]
    factor = st.tuples(st.integers(1, 4), st.integers(1, 4))
    seq = _product_of_linear_factors(draw(st.lists(factor, min_size=3, max_size=room - 1)))
    i = draw(st.integers(0, len(seq) - 1))
    shift = draw(st.fractions(Fraction(-1, 10), Fraction(1, 10), max_denominator=40))
    seq[i] += math.floor(shift * seq[i])
    return k, [0] * draw(st.integers(0, 1)) + seq


@given(late_failures())
@settings(max_examples=40, deadline=None)
@example((6, [1] * 6))
@example((5, [0, 1, 4, 8, 7]))
@example((7, [1, 4, 8, 7, 0]))
def test_one_scan_names_the_lowest_failing_order(case):
    k, seq = case
    v = pf_minor_check(seq, k)
    w = v.witness
    got = (v.holds,) + ((w.rows, w.cols, w.determinant) if w else (None, None, None))
    assert got + (v.clamped,) == rescanning_pf(seq, k)
    assert v.property == f"pf_order_{min(k, len(seq))}"


# PF5 but not PF6: its order-6 witness is embedded in the order-8 scan
PF5 = [314928, 4408992, 28081080, 107757864, 278095275, 510623489, 685172331, 683872092,
       509129145, 281027448, 113083641, 32132052, 6088608, 688176, 34992]


def test_pf5_sequence_fails_at_order_six_from_every_higher_order():
    assert pf_minor_check(PF5, 5).holds
    det = Fraction(-69159681285456434362474194014948612028488827989)
    for k in (6, 7, 8):
        v = pf_minor_check(PF5, k)
        assert (v.holds, v.property) == (False, f"pf_order_{k}")
        assert v.witness == MinorWitness((6, 7, 8, 9, 10, 11), tuple(range(6)), det)


def test_one_minor_scan_per_verdict(minor_calls):
    # at orders above the lowest failing one, and on passes
    cases = [(PF5, 8), ([1] * 8, 4), ([1, 4, 8, 7, 0], 5), ([1, 2, 2, 1, 1], 4),
             ([1, 4, 6, 4, 1], 5), ([0, 0, 1, 1, 1, 1, 1, 1], 7)]
    for seq, k in cases:
        minor_calls.clear()
        v = pf_minor_check(seq, k)
        assert minor_calls.count("_first_negative_minor") <= 1, (seq, k)
        w = v.witness
        got = (v.holds,) + ((w.rows, w.cols, w.determinant) if w else (None, None, None))
        assert got + (v.clamped,) == rescanning_pf(seq, k)


def bareiss_det(m):
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def cofactor_scan(a, k):
    """First negative k x k minor on columns 0..k-1 as (rows, det), or None.

    Every choice of the first k - 1 rows in lexicographic order, its k
    cofactors each a Bareiss determinant, then every later last row.
    """
    lead = next((i for i, v in enumerate(a) if v), len(a))
    padded = [0] * (k - 1) + a[lead:] + [0] * (k - 1)
    rows = [padded[r : r + k][::-1] for r in range(len(padded) - k + 1)]
    for head in combinations(range(len(rows)), k - 1):
        sub = [rows[r] for r in head]
        cof = [
            (-1) ** (k - 1 + j) * bareiss_det([row[:j] + row[j + 1 :] for row in sub])
            for j in range(k)
        ]
        for last in range(head[-1] + 1, len(rows)):
            if (det := sum(c * x for c, x in zip(cof, rows[last]))) < 0:
                return tuple(r + lead for r in (*head, last)), det
    return None


@st.composite
def walk_cases(draw):
    # up to 12 entries, fewer at higher orders: when nothing fails, the
    # reference spends k Bareiss determinants on each of the
    # C(n + k - 1, k - 1) heads, at most 792 here
    k = draw(st.integers(4, 7))
    room = {4: 12, 5: 9, 6: 7, 7: 5}[k]
    pairs = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=room - 1)
    seq = draw(
        st.one_of(
            st.lists(st.integers(0, 9), min_size=1, max_size=room),
            pairs.map(_product_of_linear_factors),
        )
    )
    if draw(st.booleans()):  # move one entry, so a PF product can fail late
        i = draw(st.integers(0, len(seq) - 1))
        seq[i] += draw(st.integers(-seq[i], 3))
    trailing = draw(st.integers(0, min(2, room - len(seq))))
    return k, [0] * draw(st.integers(0, 2)) + seq + [0] * trailing


@given(walk_cases())
@settings(max_examples=100, deadline=None)
@example((4, [1, 4, 8, 7, 0]))
@example((5, [0, 1, 4, 8, 7]))
@example((6, [1] * 6))
@example((7, [0, 0, 1, 2, 1, 0]))
def test_minor_walk_matches_cofactor_scan(case):
    k, a = case
    assert _first_negative_minor(a, k) == cofactor_scan(a, k)


# products of (a x + b) with integers a, b >= 0, not both zero; b = 0
# puts a root at 0 (a leading zero), a = 0 a trailing zero
real_rooted_sequences = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any), max_size=5
).map(_product_of_linear_factors)


@given(real_rooted_sequences, st.integers(1, 4))
@settings(max_examples=120, deadline=None)
@example([0, 0, 1, 2, 1], 4)  # x^2 (x + 1)^2
@example([1, 3, 3, 1, 0], 4)
@example([3], 2)
def test_real_root_certificate_gives_the_minor_verdict(seq, order):
    rr = is_real_rooted(Polynomial(tuple(seq)))
    assert rr.is_real_rooted
    cert = pf_minor_check(seq, order, real_rooted=rr.is_real_rooted)
    minors = pf_minor_check(seq, order)
    assert (cert.holds, cert.clamped, cert.property) == (
        minors.holds,
        minors.clamped,
        minors.property,
    )
    assert cert.witness is None


def test_real_root_certificate_evaluates_no_minors(minor_calls):
    for order in range(1, 8):
        v = pf_minor_check([1, 4, 6, 4, 1], order, real_rooted=True)
        k = min(order, 5)
        assert (v.holds, v.clamped, v.property) == (True, order > 5, f"pf_order_{k}")
    assert minor_calls == []


def test_complex_roots_still_reach_the_minors(minor_calls):
    rr = is_real_rooted(Polynomial((1, 1, 1)))
    assert not rr.is_real_rooted
    v = pf_minor_check([1, 1, 1], 3, real_rooted=rr.is_real_rooted)
    assert not v.holds
    assert v.witness == MinorWitness((1, 2, 3), (0, 1, 2), Fraction(-1))
    assert "_first_negative_minor" in minor_calls
    # (x - 1)^2 is real-rooted, but the rule needs nonnegative entries
    with pytest.raises(ValueError):
        pf_minor_check([1, -2, 1], 3, real_rooted=True)
