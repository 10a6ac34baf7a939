"""Acceptance suite: eleven numbered criteria, one verdict line each.

Each test prints CRITERION k: PASS/FAIL with a short justification; the
lines are also echoed after the run by the conftest summary hook.
Criterion 4 is expected to fail: its margin clause demands a float
interlacing margin of at least 0.5 at every node, but at rank 3 the
true margin is 7/16 = 0.4375 (an exact value, not a rounding artifact),
so the test reports the witness and stays red rather than loosening the
threshold.  Everything else in criterion 4 (bracket construction, exact
sign verification, Sturm agreement) is checked and holds.
"""
import math
import resource
import time
from fractions import Fraction

from coordlat.coordinator import (
    LatticeType,
    coordinator,
    coordinator_product,
    legendre_identity_check,
    type_b_coefficient_ratios,
)
from coordlat.exactpoly import binom, eval_at
from coordlat.latticeenum import lattice_spec, oracle_verify, recover_coordinator, enumerate_lengths
from coordlat.realroots import (
    count_real_roots,
    d_type_brackets,
    is_real_rooted,
    sturm_chain,
    trig_values,
)
from coordlat.seqanalysis import check_log_concave, pf_minor_check

FAMILY_START = {"A": 1, "B": 1, "C": 1, "D": 2}


def h_of(tag, n):
    return coordinator(LatticeType(tag, n)).poly


def sturm_count(p):
    """Distinct real roots of p: sign variations of sturm_chain(p) at -inf less those at +inf."""
    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    chain = sturm_chain(p).chain
    top = [f.coeffs[-1] > 0 for f in chain]
    bottom = [(f.coeffs[-1] > 0) == (f.degree % 2 == 0) for f in chain]
    return variations(bottom) - variations(top)


def test_criterion_01_degree_sixteen_regression(criterion_log):
    t0 = time.perf_counter()
    h = h_of("B", 16)
    distinct = count_real_roots(h)
    rep = is_real_rooted(h)
    elapsed = time.perf_counter() - t0
    ok = distinct == 14 and not rep.is_real_rooted and elapsed < 5
    criterion_log(
        1, ok, f"B16 has {distinct} distinct real roots, real_rooted={rep.is_real_rooted}, {elapsed:.2f}s"
    )
    assert distinct == 14
    assert not rep.is_real_rooted
    assert elapsed < 5


def test_criterion_02_a_and_c_real_rooted_through_sixty(criterion_log):
    t0 = time.perf_counter()
    bad = []
    for tag in ("A", "C"):
        for n in range(1, 61):
            if not is_real_rooted(h_of(tag, n)).is_real_rooted:
                bad.append((tag, n))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    criterion_log(2, ok, f"A1..A60 and C1..C60 all real-rooted, {elapsed:.2f}s")
    assert not bad
    assert elapsed < 120


def test_criterion_03_d_real_rooted_distinct(criterion_log):
    bad = []
    for n in range(3, 61):
        rep = is_real_rooted(h_of("D", n))
        if not (rep.is_real_rooted and rep.distinct_real == n):
            bad.append(n)
    rep2 = is_real_rooted(h_of("D", 2))
    ok = (
        not bad
        and rep2.distinct_real == 1
        and rep2.real_with_multiplicity == 2
        and rep2.is_real_rooted
    )
    criterion_log(
        3, ok, "D3..D60 real-rooted with n distinct roots; D2 reports 1 distinct / 2 with multiplicity"
    )
    assert ok


def test_criterion_04_bracket_ladder_and_node_margins(criterion_log):
    t0 = time.perf_counter()
    structural_bad = []
    margin_violations = []
    min_margin = math.inf
    for n in range(3, 61):
        brs = d_type_brackets(n)
        h = h_of("D", n)
        disjoint = all(
            b.x_interval.hi <= a.x_interval.lo for a, b in zip(brs, brs[1:])
        )
        negative = all(b.x_interval.hi < 0 for b in brs)
        sturm = sturm_count(h)
        if not (len(brs) == n == sturm == count_real_roots(h) and disjoint and negative):
            structural_bad.append(n)
        for j in range(n + 1):
            value, _ = trig_values(n, j * math.pi / n)
            margin = value if j % 2 == 0 else -value
            min_margin = min(min_margin, margin)
            if margin < 0.5:
                margin_violations.append((n, j, margin))
    elapsed = time.perf_counter() - t0
    ok = not structural_bad and not margin_violations and elapsed < 60
    detail = (
        f"58 bracket ladders exact-sign-verified, disjoint, negative, counts match Sturm, {elapsed:.2f}s; "
    )
    if margin_violations:
        n0, j0, m0 = margin_violations[0]
        detail += (
            f"margin clause fails: min float margin {m0:.4f} < 0.5 at rank {n0} node j={j0} "
            f"(exact value 7/16; violations only at rank 3, margin >= 0.5 for ranks 4..60)"
        )
    else:
        detail += f"min node margin {min_margin:.4f} >= 0.5"
    criterion_log(4, ok, detail)
    assert not structural_bad
    assert elapsed < 60
    assert not margin_violations, (
        "float interlacing margin below 0.5 at nodes: " + repr(margin_violations[:4])
    )


def test_criterion_05_envelope_bounds_on_grid(criterion_log):
    grid = 10**4
    worst_env = 0.0
    worst_excess = -math.inf
    for n in range(3, 41):
        for i in range(grid):
            phi = i * math.pi / grid
            _, env = trig_values(n, phi)
            bound = (1 - 2 * math.cos(phi) ** 2 / n) ** (n / 2)
            worst_env = max(worst_env, abs(env))
            worst_excess = max(worst_excess, abs(env) - bound)
            assert abs(env) < 1
            assert abs(env) <= bound + 1e-9
    ok = worst_env < 1 and worst_excess <= 1e-9
    criterion_log(
        5,
        ok,
        f"|envelope| <= {worst_env:.4f} < 1 and within the pointwise bound "
        f"(max excess {worst_excess:.2e}) on {grid} grid points for ranks 3..40",
    )
    assert ok


def test_criterion_06_log_concavity_and_ratio_identity(criterion_log):
    t0 = time.perf_counter()
    for tag in ("A", "B", "C", "D"):
        for n in range(FAMILY_START[tag], 201):
            assert check_log_concave(h_of(tag, n).coeffs).holds, (tag, n)
    for n in range(1, 201):
        ratios = type_b_coefficient_ratios(n)
        assert check_log_concave(ratios).holds, n
        hb = h_of("B", n).coeffs
        for k in range(n + 1):
            assert binom(n, k) * ratios[k] == hb[k]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    criterion_log(
        6,
        ok,
        f"coefficients log-concave for all four families to rank 200, ratio "
        f"sequences log-concave and rebuild the type B coefficients, {elapsed:.1f}s",
    )
    assert elapsed < 60


def test_criterion_07_legendre_identity(criterion_log):
    bad = [n for n in range(1, 51) if not legendre_identity_check(n)]
    criterion_log(7, not bad, "product identity holds exactly for n = 1..50")
    assert not bad


def test_criterion_08_enumeration_oracle(criterion_log):
    t0 = time.perf_counter()
    cases = [("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("B", 3),
             ("C", 1), ("C", 2), ("C", 3), ("D", 2), ("D", 3)]
    for tag, n in cases:
        rep = oracle_verify(LatticeType(tag, n), 6)
        assert rep.matched, (tag, n, rep.first_mismatch)
        assert rep.recovered == rep.closed_form
        assert recover_coordinator(rep.census) == rep.closed_form
    elapsed = time.perf_counter() - t0
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = elapsed < 30 and peak_mib < 1024
    criterion_log(
        8,
        ok,
        f"census matches closed-form series entry by entry and recovery "
        f"round-trips for {len(cases)} lattices at depth 6, {elapsed:.2f}s, "
        f"peak rss {peak_mib:.0f} MiB",
    )
    assert elapsed < 30
    assert peak_mib < 1024


def test_criterion_09_exceptional_recovery(criterion_log):
    results = {}
    for tag, K in (("G2", 4), ("F4", 6)):
        lt = LatticeType(tag)
        census = enumerate_lengths(lattice_spec(lt), K)
        h = recover_coordinator(census)
        assert h.degree <= lt.rank
        assert h.coeff(0) == 1
        assert all(c.denominator == 1 for c in h.coeffs)
        rep = is_real_rooted(h)
        assert rep.is_real_rooted
        results[tag] = [int(c) for c in h.coeffs]
    ok = results == {"G2": [1, 10, 7], "F4": [1, 44, 198, 140, 1]}
    criterion_log(
        9,
        ok,
        f"G2 -> {results['G2']} and F4 -> {results['F4']}, both real-rooted "
        "by Sturm count; E-series excluded by design",
    )
    assert ok


def test_criterion_10_isomorphism_identities(criterion_log):
    a1 = LatticeType("A", 1)
    same_d2 = coordinator(LatticeType("D", 2)).poly == coordinator_product([a1, a1]).poly
    same_d3 = coordinator(LatticeType("D", 3)).poly == coordinator(LatticeType("A", 3)).poly
    same_b2 = coordinator(LatticeType("B", 2)).poly == coordinator(LatticeType("C", 2)).poly
    ok = same_d2 and same_d3 and same_b2
    criterion_log(
        10, ok, "D2 = A1 x A1, D3 = A3, B2 = C2 as exact coefficient identities"
    )
    assert ok


def test_criterion_11_property_suites(criterion_log):
    # palindromic coefficient sequences
    for tag in ("A", "C", "D"):
        for n in range(FAMILY_START[tag], 201):
            c = h_of(tag, n).coeffs
            assert c == tuple(reversed(c)), (tag, n)

    # evaluation at 1 against the closed sums
    for n in range(1, 201):
        assert eval_at(h_of("A", n), 1) == binom(2 * n, n)
        assert eval_at(h_of("C", n), 1) == 2 ** (2 * n - 1)
        assert eval_at(h_of("B", n), 1) == 4**n - n * 2**n
    for n in range(2, 201):
        assert eval_at(h_of("D", n), 1) == 2 ** (2 * n - 1) - 2 * n * 2 ** (n - 2)

    # order-3 total positivity is necessary for real-rootedness
    checked = 0
    for tag in ("A", "B", "C", "D"):
        for n in range(FAMILY_START[tag], 31):
            h = h_of(tag, n)
            if is_real_rooted(h).is_real_rooted:
                assert pf_minor_check(h.coeffs, 3).holds, (tag, n)
                checked += 1

    # and it detects the classic non-real-rooted sequence
    v = pf_minor_check([1, 1, 1], 3)
    assert not v.holds
    assert v.witness.rows == (1, 2, 3)
    assert v.witness.cols == (0, 1, 2)
    assert v.witness.determinant == Fraction(-1)

    criterion_log(
        11,
        True,
        f"palindromicity and evaluation sums to rank 200, order-3 minors "
        f"nonnegative for all {checked} real-rooted polynomials to rank 30, "
        "negative witness found for [1, 1, 1]",
    )
