"""Sturm counting, isolation, and the trigonometric bracket ladder."""
import cmath
import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordlat import cli, exactpoly, realroots
from coordlat.coordinator import LatticeType, coordinator
from coordlat.exactpoly import (
    eval_at,
    poly,
    primitive_integer_coeffs,
    squarefree_decomposition,
    squarefree_part,
)
from coordlat.realroots import (
    BracketingError,
    Interval,
    RootReport,
    TrigBracket,
    count_real_roots,
    d_type_brackets,
    is_real_rooted,
    isolate_real_roots,
    refine_bracket,
    sturm_chain,
    trig_values,
)


def h_of(tag, n):
    return coordinator(LatticeType(tag, n)).poly


def b_coeffs(n):
    return list(primitive_integer_coeffs(h_of("B", n)))


def ladder_of(c):
    """The certified ladder of integer coefficients c, or None."""
    return realroots._certificate(realroots._Coeffs(c))[0]


def test_sturm_chain_of_quadratic():
    # x^2 - 2 -> derivative, then a positive constant
    chain = sturm_chain(poly([-2, 0, 1])).chain
    assert len(chain) == 3
    assert chain[0] == poly([-2, 0, 1])
    assert chain[1] == poly([0, 2])
    # final element equals the classical remainder up to a positive scalar
    assert chain[2].degree == 0
    assert chain[2].coeff(0) > 0


def test_count_whole_line():
    assert count_real_roots(poly([-2, 0, 1])) == 2
    assert count_real_roots(poly([1, 0, 1])) == 0
    assert count_real_roots(poly([0, 1])) == 1
    # multiple roots count once
    assert count_real_roots(poly([1, 2, 1])) == 1


def test_count_in_closed_interval():
    p = poly([0, -1, 0, 1])  # x(x-1)(x+1)
    assert count_real_roots(p, Interval(Fraction(0), Fraction(1))) == 2
    assert count_real_roots(p, Interval(Fraction(-1), Fraction(1))) == 3
    assert count_real_roots(p, Interval(Fraction(1, 2), Fraction(2))) == 1
    assert count_real_roots(p, Interval(Fraction(-3), Fraction(-2))) == 0
    assert count_real_roots(p, Interval(Fraction(-1), Fraction(0))) == 2
    # roots 0.0999930, 0.1 and 0.1000073: stepping off the endpoint 1/10
    # by 1/(1 + max|coeff|) would jump over the root just below it
    line = poly([-1, 10])
    p = line * (poly([0] * 8 + [1]) - poly([2]) * line * line)
    assert count_real_roots(p, Interval(Fraction(1, 10), Fraction(1))) == 2
    assert count_real_roots(p, Interval(Fraction(0), Fraction(1, 10))) == 2


def test_root_report_with_multiplicities():
    # (1+x)^3 (x^2+1): one distinct real root, three with multiplicity
    p = poly([1, 2, 1]) * poly([1, 1]) * poly([1, 0, 1])
    rep = is_real_rooted(p)
    assert rep.degree == 5
    assert rep.distinct_real == 1
    assert rep.real_with_multiplicity == 3
    assert not rep.is_real_rooted


def test_all_real_with_multiplicities():
    p = poly([1, 2, 1]) * poly([2, 1])
    rep = is_real_rooted(p)
    assert rep.distinct_real == 2
    assert rep.real_with_multiplicity == 3
    assert rep.is_real_rooted


def test_degree_sixteen_regression():
    rep = is_real_rooted(h_of("B", 16))
    assert rep.degree == 16
    assert rep.distinct_real == 14
    assert rep.real_with_multiplicity == 14
    assert not rep.is_real_rooted
    # the verdict rests on a 15-rung ladder and one disc around a complex pair
    c = b_coeffs(16)
    assert len(ladder_of(c)) == 15
    assert len(realroots._b_certificate(c)[1]) == 1


def test_isolation_of_sqrt_two():
    ivs = isolate_real_roots(poly([-2, 0, 1]))
    assert len(ivs) == 2
    neg, pos = ivs
    assert neg.lo < neg.hi < 0 < pos.lo < pos.hi
    assert pos.lo**2 < 2 < pos.hi**2
    assert neg.hi**2 < 2 < neg.lo**2
    assert pos.width <= Fraction(1, 64)


def test_isolation_of_cubic_inside_window():
    # 1 + 9x + 9x^2 + x^3 has roots -4-sqrt(15), -1, -4+sqrt(15)
    ivs = isolate_real_roots(h_of("D", 3))
    assert len(ivs) == 3
    for iv in ivs:
        assert Fraction(-8) < iv.lo < iv.hi < 0
    assert ivs[0].lo < ivs[1].lo < ivs[2].lo


@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 2)])
def test_width_must_be_positive(width):
    # bisection can never get an interval below a width of zero or less
    with pytest.raises(ValueError, match="width must be positive"):
        isolate_real_roots(poly([-2, 0, 1]), width)
    with pytest.raises(ValueError, match="width must be positive"):
        refine_bracket(Interval(Fraction(1), Fraction(2)), poly([-2, 0, 1]), width)


def test_refine_to_width_around_integer_root():
    h = h_of("D", 3)
    ivs = isolate_real_roots(h)
    mid = refine_bracket(ivs[1], h, Fraction(1, 1024))
    assert mid.width <= Fraction(1, 1024)
    assert mid.lo <= -1 <= mid.hi


def test_refine_to_millionth_around_quadratic_surd():
    h = h_of("D", 3)
    ivs = isolate_real_roots(h)
    iv = refine_bracket(ivs[2], h, Fraction(1, 10**6))
    assert iv.width <= Fraction(1, 10**6)
    # the root is -4 + sqrt(15); compare squares to stay exact
    assert (iv.lo + 4) ** 2 < 15 < (iv.hi + 4) ** 2


def test_refine_needs_a_sign_change():
    # an endpoint that is itself a root has sign zero
    with pytest.raises(ValueError):
        refine_bracket(Interval(Fraction(2), Fraction(3)), poly([-4, 0, 1]), Fraction(1, 4))
    with pytest.raises(ValueError):
        refine_bracket(Interval(Fraction(3), Fraction(4)), poly([-2, 0, 1]), Fraction(1, 4))


def test_window_function_values():
    # at rank 3 and the middle node the value is exactly -7/16 in floats
    value, envelope = trig_values(3, math.pi / 3)
    assert value == pytest.approx(-0.4375, abs=1e-12)
    assert envelope == pytest.approx(0.5625, abs=1e-12)
    with pytest.raises(ValueError):
        trig_values(1, 0.5)


def test_bracket_ladder_rank_three():
    brs = d_type_brackets(3)
    assert len(brs) == 3
    assert [b.j for b in brs] == [0, 1, 2]
    h = h_of("D", 3)
    for b in brs:
        iv = b.x_interval
        assert iv.hi < 0
        s_lo = eval_at(h, iv.lo)
        s_hi = eval_at(h, iv.hi)
        assert (s_lo < 0 < s_hi) or (s_hi < 0 < s_lo)
    # windows are pairwise disjoint and ordered toward -infinity
    for a, b in zip(brs, brs[1:]):
        assert b.x_interval.hi <= a.x_interval.lo


def test_bracket_count_matches_sturm_count():
    # count_real_roots reads a D closed form off its ladder, so the
    # Sturm counts come from sturm_chain itself
    for n in (3, 4, 5, 8, 13):
        brs = d_type_brackets(n)
        h = h_of("D", n)
        assert len(brs) == n == RefSturm(h).total == count_real_roots(h)
        for b in brs:
            assert sturm_only_count(h, b.x_interval) == 1 == count_real_roots(h, b.x_interval)


def test_bracket_refinement():
    h = h_of("D", 5)
    brs = d_type_brackets(5)
    iv = refine_bracket(brs[0], h, Fraction(1, 10**6))
    assert iv.width <= Fraction(1, 10**6)
    assert iv.hi < 0


def test_rank_two_has_no_ladder():
    with pytest.raises(ValueError):
        d_type_brackets(2)


def test_unreachable_margin_raises():
    with pytest.raises(BracketingError):
        d_type_brackets(5, margin=0.99)


def test_margin_is_enforced_as_given():
    # rank 3 has true node margin 7/16: no silent relaxation below 1/2,
    # and no float gate at all unless a margin is asked for
    with pytest.raises(BracketingError):
        d_type_brackets(3, margin=0.5)
    assert len(d_type_brackets(3, margin=0.43)) == 3
    assert d_type_brackets(3) == d_type_brackets(3, margin=0.43)


# Reference: the Fraction bisection of an earlier version, counting roots
# with the public Sturm chain and signs at Fraction points.  It shares no
# code with the dyadic kernel it checks.


def ref_sign(c, r):
    """Sign of sum c_k num^k den^(d-k), Horner in integers."""
    num, den = r.numerator, r.denominator
    acc, tp = c[-1], 1
    for ck in reversed(c[:-1]):
        tp *= den
        acc = acc * num + ck * tp
    return (acc > 0) - (acc < 0)


def variations(signs):
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class RefSturm:
    """N(x), the number of distinct roots above x, from sturm_chain(p)."""

    def __init__(self, p):
        self.chain = [list(primitive_integer_coeffs(f)) for f in sturm_chain(p).chain]
        self.top = variations([(f[-1] > 0) - (f[-1] < 0) for f in self.chain])
        bottom = [((f[-1] > 0) - (f[-1] < 0)) * (-1) ** (len(f) - 1) for f in self.chain]
        self.total = variations(bottom) - self.top

    def above(self, x):
        return variations([ref_sign(f, x) for f in self.chain]) - self.top


def ref_nonroot_split(c, lo, hi):
    mid = (lo + hi) / 2
    s = ref_sign(c, mid)
    if s != 0:
        return mid, s
    gap = hi - lo
    k = 3
    while True:
        for cand in (mid - gap / 2**k, mid + gap / 2**k):
            s = ref_sign(c, cand)
            if s != 0:
                return cand, s
        k += 1


def ref_bisect_sign(c, lo, hi, s_lo, width):
    while hi - lo > width:
        mid, s = ref_nonroot_split(c, lo, hi)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def ref_refine(iv, p, width):
    c = list(primitive_integer_coeffs(p))
    return ref_bisect_sign(c, iv.lo, iv.hi, ref_sign(c, iv.lo), Fraction(width))


def sturm_only_intervals(p, width=Fraction(1, 64)):
    c = list(primitive_integer_coeffs(squarefree_part(p)[0]))
    counter = RefSturm(p)
    bound = 1 + max(abs(v) for v in c[:-1]) // abs(c[-1]) + 1
    lo, hi = Fraction(-bound), Fraction(bound)
    found = []
    stack = [(lo, ref_sign(c, lo), counter.above(lo), hi, counter.above(hi))]
    while stack:
        a, sa, na, b, nb = stack.pop()
        if na - nb == 1:
            found.append(ref_bisect_sign(c, a, b, sa, width))
        elif na - nb > 1:
            m, sm = ref_nonroot_split(c, a, b)
            nm = counter.above(m)
            stack += [(a, sa, na, m, nm), (m, sm, nm, b, nb)]
    return tuple(sorted(found, key=lambda iv: iv.lo))


def sturm_only_count(p, iv):
    """Roots in the closed interval iv."""
    counter = RefSturm(p)
    return counter.above(iv.lo) - counter.above(iv.hi) + (eval_at(p, iv.lo) == 0)


def sturm_only_report(p):
    """(distinct, with multiplicity, verdict) from Sturm chains alone."""
    distinct = weighted = 0
    for f, m in squarefree_decomposition(p):
        k = RefSturm(f).total
        distinct += k
        weighted += m * k
    return distinct, weighted, weighted == p.degree


def test_ladders_agree_with_sturm_through_rank_40():
    for tag in "ABCD":
        for n in range(2 if tag == "D" else 1, 41):
            h = h_of(tag, n)
            c = list(primitive_integer_coeffs(h))
            ladder = ladder_of(c)
            if tag in "ABC" or (tag == "D" and n >= 3):
                assert ladder is not None, f"{tag}{n} not ladder-certified"
            rep = is_real_rooted(h)
            want = sturm_only_report(h)
            assert (rep.distinct_real, rep.real_with_multiplicity, rep.is_real_rooted) == want
            assert isolate_real_roots(h) == sturm_only_intervals(h), f"{tag}{n}"
            # at width 3 the roots near 0 share a cell, and picking descends
            for width in (Fraction(3), Fraction(1, 10**6)) if n <= 24 else ():
                want = sturm_only_intervals(h, width)
                assert isolate_real_roots(h, width) == want, f"{tag}{n} at {width}"


def test_ladder_counter_matches_sturm_at_rungs_and_roots():
    # N(x) at every rung, between rungs and on a root itself; a rational
    # x = n/q is the integer n for the rungs times q, and a dyadic one is
    # (n, e) as it stands
    h = h_of("C", 6)
    c = list(primitive_integer_coeffs(h))
    ladder = realroots._LadderCounter(ladder_of(c))
    sturm = RefSturm(h)
    points = list(ladder.rungs) + [Fraction(-10**6), Fraction(1), Fraction(0)]
    points += [(a + b) / 2 for a, b in zip(ladder.rungs, ladder.rungs[1:])]
    points += [Fraction(round(x * 2**20), 2**20) for x in points]
    for x in points:
        s = ref_sign(c, x)
        n, q = x.numerator, x.denominator
        scaled = realroots._LadderCounter([r * q for r in ladder.rungs])
        assert scaled.above(n, 0, s) == sturm.above(x)
        if q & (q - 1) == 0:
            assert ladder.above(n, q.bit_length() - 1, s) == sturm.above(x)
            assert realroots._sign_at(realroots._Coeffs(c), n, q.bit_length() - 1) == s
    # h_C(x^2) = ((1+x)^12 + (1-x)^12) / 2 has no rational roots, so use
    # a ladder polynomial with one: h_A(1) = 1 + x at x = -1
    one = realroots._LadderCounter(ladder_of([1, 1]))
    assert one.above(-1, 0, 0) == 0
    assert one.above(-2, 1, 0) == 0
    assert count_real_roots(poly([1, 1]), Interval(Fraction(-1), Fraction(0))) == 1


def test_non_closed_forms_take_sturm():
    assert ladder_of([1, 3, 1, 1]) is None  # 1+3x+x^2+x^3
    # a product of closed forms is not itself a closed form
    prod = h_of("A", 3) * h_of("C", 2)
    assert ladder_of(list(primitive_integer_coeffs(prod))) is None
    rep = is_real_rooted(prod)
    assert (rep.distinct_real, rep.is_real_rooted) == (5, True)


def test_closed_forms_are_counted_without_a_squarefree_part(monkeypatch):
    # a closing ladder proves the closed form squarefree, so neither
    # counting nor isolation takes its squarefree part
    calls = []
    part = realroots.squarefree_part
    monkeypatch.setattr(realroots, "squarefree_part", lambda p: calls.append(p) or part(p))
    for tag in "ABCD":
        for n in (*range(3 if tag == "D" else 1, 13), 36):
            h = h_of(tag, n)
            assert count_real_roots(h) == len(isolate_real_roots(h)) == is_real_rooted(h).distinct_real
    assert calls == []
    prod = h_of("A", 3) * h_of("C", 2)
    assert count_real_roots(prod) == 5
    assert calls == [prod]


def test_dyadic_ladder_keeps_the_fraction_rungs():
    # rungs signed and ordered as integers, returned as the Fractions
    # -1/2^40, the separators on the grid 2^-32 and -(1 + max|c_k|)
    for tag in "ABCD":
        for n in range(3 if tag == "D" else 1, 31):
            c = realroots._Coeffs(primitive_integer_coeffs(h_of(tag, n)))
            seps = realroots._CERTIFICATES[tag](c)[0]
            want = [Fraction(round(t * 2**32), 2**32) for t in seps]
            want = [Fraction(-1, 2**40), *want, Fraction(-(1 + max(map(abs, c))))]
            assert realroots._ladder(c, seps) == want, f"{tag}{n}"


def test_ladder_rejects_a_wrong_sign_and_a_lost_order():
    c = realroots._Coeffs([6, 11, 6, 1])  # (x + 1)(x + 2)(x + 3)
    assert realroots._ladder(c, [-1.5, -2.5])[1:] == [Fraction(-3, 2), Fraction(-5, 2), -12]
    with pytest.raises(BracketingError, match="exact sign verification failed") as err:
        realroots._ladder(c, [-2.5, -1.5])
    assert (err.value.j, err.value.value) == (1, -2.5)
    # every rung has the sign its place asks for, but -1/2 is above -3/2
    with pytest.raises(BracketingError, match="lost strict monotonicity"):
        realroots._ladder(c, [-1.5, -0.5])


def disc_holds(c, d):
    """d misses the real axis and, by Rouche, holds exactly one root of c."""
    return 1 << d.e < d.v and realroots._pellet(*realroots._shift_bounds(c, d.u, d.v, d.s), d.e)


@pytest.mark.parametrize("n, real", [(16, 14), (20, 18)])
def test_type_b_certifies_with_one_disc(n, real):
    c = b_coeffs(n)
    ladder = ladder_of(c)
    assert ladder is not None and len(ladder) - 1 == real
    separators, discs, _ = realroots._b_certificate(c)
    assert len(separators) + 1 == real and len(discs) == 1
    assert all(disc_holds(c, d) for d in discs)


def moved(d, du=0, dv=0, e=None):
    return realroots._Disc(d.u + du, d.v + dv, d.s, d.e if e is None else e)


def test_pellet_rejects_a_moved_center():
    c = b_coeffs(16)
    (d,) = realroots._b_certificate(c)[1]
    assert disc_holds(c, d)
    r = 1 << d.e
    for du, dv in ((5 * r, 0), (-5 * r, 0), (0, 5 * r), (3 * r, -3 * r)):
        assert not disc_holds(c, moved(d, du, dv))


def test_disc_must_miss_the_real_axis():
    # x^2 + 4 at 2i: P(2i + t) = 4i t + t^2, so Pellet holds for radius < 4
    c = [4, 0, 1]
    assert disc_holds(c, realroots._Disc(0, 2, 0, 0))
    touching = realroots._Disc(0, 2, 0, 1)
    assert realroots._pellet(*realroots._shift_bounds(c, 0, 2, 0), touching.e)
    assert not disc_holds(c, touching)
    # x^2 + 3 at 3i/2: 4 p(y/2) at 3i + t is 3 + 6i t + t^2; radius 2 > 3/2
    c = [3, 0, 1]
    assert disc_holds(c, realroots._Disc(0, 3, 1, 1))
    crossing = realroots._Disc(0, 3, 1, 2)
    assert realroots._pellet(*realroots._shift_bounds(c, 0, 3, 1), crossing.e)
    assert not disc_holds(c, crossing)


def test_pellet_rounds_toward_rejection():
    # x^2 + x + 1 at i: A_0 = i, A_1 = 1 + 2i, A_2 = 1.  At R = 2,
    # |A_1| R = 2 sqrt 5 < 5 = |A_0| + |A_2| R^2, though ceil |A_1| R = 6
    lo1, hi = realroots._shift_bounds([1, 1, 1], 0, 1, 0)
    assert (lo1, hi) == (2, [1, 3, 1])
    assert not realroots._pellet(lo1, hi, 1)


def test_overlapping_discs_are_rejected():
    # (x^2 + 1)(x^2 + 2x + 2): roots i and -1 + i, one apart
    c = [2, 2, 3, 2, 1]
    i, j = realroots._Disc(0, 4, 2, 0), realroots._Disc(-4, 4, 2, 0)
    assert disc_holds(c, i) and disc_holds(c, j)
    assert realroots._disjoint([i, j])
    # radius 1/2 each: tangent; radius 1 and 1/4: overlapping
    assert not realroots._disjoint([moved(i, e=1), moved(j, e=1)])
    assert not realroots._disjoint([moved(i, e=2), j])
    assert not realroots._disjoint([i, i])


def assert_sturm_fallback(n):
    h = h_of("B", n)
    assert ladder_of(b_coeffs(n)) is None
    rep = is_real_rooted(h)
    got = (rep.distinct_real, rep.real_with_multiplicity, rep.is_real_rooted)
    assert got == sturm_only_report(h)
    assert isolate_real_roots(h) == sturm_only_intervals(h)


@pytest.mark.parametrize("drop", ["guess", "separator"])
def test_failed_b_certificate_falls_back_to_sturm(monkeypatch, drop):
    propose = realroots._b_proposal

    def short(n):
        # without one sign-change angle the ladder loses a separator
        thetas, guesses = propose(n)
        if drop == "guess":
            return thetas, guesses[1:]
        return thetas[:3] + thetas[4:], guesses

    monkeypatch.setattr(realroots, "_b_proposal", short)
    assert_sturm_fallback(20)


def test_two_discs_around_one_root_fall_back_to_sturm(monkeypatch):
    c = b_coeffs(20)
    thetas, (x,) = realroots._b_proposal(20)
    twin = x + 1e-3
    discs = [realroots._root_disc(c, y, 1e-3) for y in (x, twin)]
    assert all(d is not None and disc_holds(c, d) for d in discs)
    assert not realroots._disjoint(discs)
    monkeypatch.setattr(realroots, "_b_proposal", lambda n: (thetas, [x, twin]))
    assert realroots._b_certificate(c)[1] == []
    assert_sturm_fallback(20)


def _reference_b_proposal(n):
    """The dense sampler _b_proposal replaced: g at 32 (2n+1) points of (0, pi/2)."""
    k = 2 * n + 1
    steps = 32 * k
    h = math.pi / (2 * steps)
    noise = 2.0**-46 * k
    roots, dips = [], []
    t0 = g0 = t1 = g1 = None
    for i in range(1, steps):
        t = i * h
        co = math.cos(t)
        cc = co * co
        tail = 2 * n * (1 - cc) * co * (2 * cc - 1) ** (n - 1)
        g = math.cos(k * t) + tail
        if abs(g) <= noise * (1 + abs(tail)):
            continue
        if g1 is not None:
            if (g1 > 0) != (g > 0):
                roots.append((t1 + t) / 2)
            elif g0 is not None and (g0 > 0) == (g1 > 0) and abs(g0) > abs(g1) <= abs(g):
                dips.append((t0, g0, t1, g1, t, g))
        t0, g0, t1, g1 = t1, g1, t, g
    guesses = []
    for t0, g0, t1, g1, t2, g2 in dips:
        a = ((g2 - g1) / (t2 - t1) - (g1 - g0) / (t1 - t0)) / (t2 - t0)
        b = (g1 - g0) / (t1 - t0) + a * (t1 - t0)
        u = realroots._b_newton(n, math.pi / 2 - t1 - (-b + cmath.sqrt(b * b - 4 * a * g1)) / (2 * a))
        if u is None:
            continue
        try:
            x = -(1 / cmath.tan(u)) ** 2
        except (OverflowError, ZeroDivisionError):
            continue
        x = complex(x.real, abs(x.imag))
        if not cmath.isfinite(x) or x.imag <= 1e-9 * abs(x):
            continue
        if all(abs(x - y) > 1e-6 * abs(x) for y in guesses):
            guesses.append(x)
    return roots, guesses


B_RANKS = range(1, 81)


@pytest.fixture(scope="module")
def b_isolations():
    """Per rank of B_RANKS: what _b_proposal, the type B certificate and
    _pick_cells returned in isolate_real_roots at widths 1/1024 and 3.

    B1 = A1 and B2 = C2 take their plain ladders, so only _pick_cells runs.
    """
    runs = {}

    def spy(real, name):
        def called(*args):
            out = real(*args)
            runs[n].setdefault(name, []).append(out)
            return out

        return called

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_b_proposal", "_pick_cells"):
            mp.setattr(realroots, name, spy(getattr(realroots, name), name))
        mp.setitem(realroots._CERTIFICATES, "B", spy(realroots._b_certificate, "certificate"))
        for n in B_RANKS:
            runs[n] = {}
            for width in (Fraction(1, 1024), Fraction(3)):
                isolate_real_roots(h_of("B", n), width)
    return runs


def test_extrema_first_proposal_keeps_every_b_certificate(b_isolations):
    # sign-change, guess and disc counts as with dense sampling, and they close
    for n in B_RANKS:
        run, c = b_isolations[n], b_coeffs(n)
        thetas, guesses = run.get("_b_proposal", [realroots._b_proposal(n)])[0]
        discs = run.get("certificate", [realroots._b_certificate(c)])[0][1]
        ref = _reference_b_proposal(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(realroots, "_b_proposal", lambda n: ref)
            ref_discs = realroots._b_certificate(c)[1]
        got = (len(thetas), len(guesses), len(discs))
        assert got == (len(ref[0]), len(ref[1]), len(ref_discs)), f"B{n}"
        assert len(thetas) + 2 * len(discs) == n, f"B{n}"


def test_extrema_first_proposal_picks_every_cell(b_isolations):
    # the dense sampler's guesses picked every cell of B1..B80 at both
    # widths; the extrema-first ones must too, so no isolation bisects
    for n in B_RANKS:
        picks = b_isolations[n]["_pick_cells"]
        assert len(picks) == 2 and None not in picks, f"B{n}"


WIDTHS = [Fraction(1, 1024), Fraction(1, 3), Fraction(5, 7), Fraction(3)]


def dyadic(factor):
    a, b = factor
    return Fraction(b, 2**a)


# count_real_roots on rational intervals: the closed forms count on
# their ladders, rescaled to the interval's grid, and the products, no
# closed form, on Sturm chains; sturm_only_count shares neither
PRODUCTS = {
    "A3 C2": lambda: h_of("A", 3) * h_of("C", 2),
    "D4 (1+x)^2": lambda: h_of("D", 4) * poly([1, 1]) ** 2,
    "1+3x+x^2+x^3": lambda: poly([1, 3, 1, 1]),
    "(x^2-2)(1-3x)(7x-5)": lambda: poly([-2, 0, 1]) * poly([1, -3]) * poly([-5, 7]),
}
COUNTED = [(tag, n) for tag in "ABCD" for n in range(3 if tag == "D" else 1, 13)] + list(PRODUCTS)
NEAR = [Fraction(0), Fraction(1, 3), Fraction(-1, 5), Fraction(1, 1000003),
        Fraction(-1, 2**33 + 1), Fraction(1, 2**45)]


@lru_cache(maxsize=None)
def counted(name):
    """(p, interval ends): ladder rungs, isolating-interval ends and midpoints, -1 and 0."""
    if name in PRODUCTS:
        p, rungs = PRODUCTS[name](), []
    else:
        p = h_of(*name)
        rungs = list(ladder_of(list(primitive_integer_coeffs(p))))
        rungs += realroots._d_ladder(name[1]) if name[0] == "D" else []
    ends = set(rungs) | {Fraction(-1), Fraction(0)}
    for iv in isolate_real_roots(p, Fraction(1, 7)):
        ends |= {iv.lo, iv.hi, (iv.lo + iv.hi) / 2}
    return p, sorted(ends)


@given(st.sampled_from(COUNTED), st.integers(0, 10**6), st.integers(0, 10**6),
       st.sampled_from(NEAR), st.sampled_from(NEAR))
@settings(max_examples=400, deadline=None)
def test_counts_on_rational_intervals_match_sturm(name, i, j, di, dj):
    p, ends = counted(name)
    a, b = ends[i % len(ends)] + di, ends[j % len(ends)] + dj
    if a != b:
        iv = Interval(min(a, b), max(a, b))
        assert count_real_roots(p, iv) == sturm_only_count(p, iv), (name, iv)


def test_nudge_steps_off_three_grid_roots():
    # 4x^3 - x has roots 0 and -1/2, 1/2 on the grid of [-2, 2]: the
    # midpoint 0 and both nudges at -/+ 4/8 are roots, so the split is -4/16
    c = [0, -1, 0, 4]
    assert realroots._nonroot_split(realroots._Coeffs(c), -2, 2, 0) == (-4, 4, 1)
    p = poly(c)
    for width in WIDTHS:
        assert isolate_real_roots(p, width) == sturm_only_intervals(p, width)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(-40, 40)),
        min_size=1,
        max_size=5,
        unique_by=dyadic,
    ),
    st.sampled_from(WIDTHS),
)
@settings(max_examples=60, deadline=None)
def test_dyadic_roots_match_the_fraction_reference(factors, width):
    # roots b / 2^a sit on the bisection grid of [-bound, bound] whenever
    # the odd part of the bound divides b, so midpoints hit them and the
    # splits are nudged
    p = poly([1])
    for a, b in factors:
        p = p * poly([-b, 2**a])
    roots = sorted(map(dyadic, factors))
    ivs = sturm_only_intervals(p, width)
    assert isolate_real_roots(p, width) == ivs
    assert count_real_roots(p) == len(roots)
    # closed intervals with roots, dyadic and non-dyadic points as ends
    ends = sorted({x + d for x in roots for d in (0, Fraction(1, 3), Fraction(-1, 4))})
    for lo in ends:
        for hi in ends:
            if lo < hi:
                iv = Interval(lo, hi)
                assert count_real_roots(p, iv) == sturm_only_count(p, iv)
    # windows around 1 and 3 roots; a plain interval is always bisected
    for k in (0, 2):
        for i in range(len(ivs) - k):
            window = Interval(ivs[i].lo, ivs[i + k].hi)
            want = ref_refine(window, p, width / 16)
            assert refine_bracket(window, p, width / 16) == want


def cli_roots(capsys, n, width):
    cli.main(["roots", "--type", "D", "--n", str(n), "--width", width, "--format", "json"])
    return json.loads(capsys.readouterr().out)


def cli_brackets(capsys, n, width):
    return cli_roots(capsys, n, width)["brackets"]


@pytest.mark.parametrize("width", ["1/1024", "1/7", "3", "1/1000000"])
def test_d_brackets_equal_plain_bisection(capsys, width):
    for n in range(3, 41):
        h = h_of("D", n)
        want = [ref_refine(b.x_interval, h, Fraction(width)) for b in d_type_brackets(n)]
        got = [[Fraction(x) for x in b["x"]] for b in cli_brackets(capsys, n, width)]
        assert got == [[iv.lo, iv.hi] for iv in want], f"D{n}"


def float_roots(p):
    return [float((iv.lo + iv.hi) / 2) for iv in isolate_real_roots(p, Fraction(1, 2**40))]


def wrong_guesses(monkeypatch, wrong, roots):
    """Feed _pick_cells wrong root guesses; return the list of bisections run.

    neighbour: the first guess is replaced by the root nearest to it;
    moved: every guess lies 3 widths above itself, past its cell and the
    next; dropped and duplicated: the first guess is left out or given
    twice; next_cell: every guess lies one grid cell above itself.
    Guesses are in the grid units of c, the roots times c.q.
    """
    pick = realroots._pick_cells

    def wrong_pick(c, a, b, wn, wd, above, guesses, *memo):
        g = list(guesses)
        if wrong == "neighbour":
            g[0] = sorted(roots, key=lambda r: abs(r * c.q - g[0]))[1] * c.q
        elif wrong == "moved":
            g = [x + 3 * wn / wd for x in g]
        elif wrong == "dropped":
            g = g[1:]
        elif wrong == "next_cell":
            t = 0
            while (b - a) * wd > wn << t:
                t += 1
            g = [x + (b - a) / (1 << t) for x in g]
        else:
            g = g + g[:1]
        return pick(c, a, b, wn, wd, above, g, *memo)

    monkeypatch.setattr(realroots, "_pick_cells", wrong_pick)
    bisected = []
    bisect = realroots._bisect_sign
    monkeypatch.setattr(realroots, "_bisect_sign", lambda *a: bisected.append(a) or bisect(*a))
    return bisected


WRONG = ["neighbour", "moved", "dropped", "duplicated"]


@pytest.mark.parametrize("wrong", WRONG)
def test_d_brackets_fall_back_on_a_wrong_guess(capsys, monkeypatch, wrong):
    n, width = 12, "1/1000000"
    want = cli_roots(capsys, n, width)
    roots = float_roots(h_of("D", n))
    bisected = wrong_guesses(monkeypatch, wrong, roots)
    assert cli_roots(capsys, n, width) == want
    # every isolation interval and every bracket
    assert len(bisected) == 2 * n


@pytest.mark.parametrize("wrong", WRONG)
@pytest.mark.parametrize("tag", "ABCD")
def test_wrong_guesses_fall_back_to_bisection(monkeypatch, tag, wrong):
    h = h_of(tag, 20)
    bisected = wrong_guesses(monkeypatch, wrong, float_roots(h))
    for width in (Fraction(1, 1024), Fraction(3)):
        want = sturm_only_intervals(h, width)
        bisected.clear()
        assert isolate_real_roots(h, width) == want
        assert len(bisected) == len(want)


@pytest.mark.parametrize("tag", "ABCD")
def test_a_guess_one_cell_off_still_picks_the_cell(monkeypatch, tag):
    # the cell next to the guess's own is tried when that one holds no root
    h, width = h_of(tag, 20), Fraction(1, 1024)
    want = sturm_only_intervals(h, width)
    bisected = wrong_guesses(monkeypatch, "next_cell", [])
    assert isolate_real_roots(h, width) == want
    assert bisected == []


@pytest.mark.parametrize("width", [Fraction(1, 1024), Fraction(3)])
def test_picking_signs_each_point_once(monkeypatch, width):
    # C20's roots get their cells from 2 signs each, the cell ends; at
    # width 3 picking descends, and a child shares an end with its parent
    n = 20
    points = []
    sign_at = realroots._sign_at

    def spy(c, m, e=0):
        points.append(Fraction(m, 1 << e))
        return sign_at(c, m, e)

    monkeypatch.setattr(realroots, "_sign_at", spy)
    isolate_real_roots(h_of("C", n), width)
    assert len(points) == len(set(points))
    if width < 1:
        # n + 1 ladder rungs, the two bounds, two ends per root
        assert len(points) == (n + 1) + 2 + 2 * n


def test_refining_a_d_bracket_signs_each_point_once(monkeypatch):
    # refine_bracket hands its signed ends to _pick_cells, and the
    # closed form's coefficients are read without rescaling
    n, width = 12, Fraction(1, 1024)
    h = h_of("D", n)
    want = [ref_refine(b.x_interval, h, width) for b in d_type_brackets(n)]
    points = []
    sign_at = realroots._sign_at

    def spy(c, m, e=0):
        points.append(Fraction(m, 1 << e))
        return sign_at(c, m, e)

    monkeypatch.setattr(realroots, "_sign_at", spy)
    monkeypatch.setattr(realroots, "primitive_integer_coeffs", None)
    for b, iv in zip(d_type_brackets(n), want):
        points.clear()
        assert refine_bracket(b, h, width) == iv
        # the two ends and the two ends of the picked cell
        assert len(points) == len(set(points)) == 4


def test_sturm_counts_on_an_interval_sign_each_point_once(monkeypatch):
    # _on_grid signs c at both ends, and the Sturm counter reads those
    # signs for its first element, c itself on the same grid
    p = poly([1, 3, 1, 1]) * poly([-2, 0, 1])
    iv = Interval(Fraction(-5, 3), Fraction(7, 3))
    points = []
    sign_at = realroots._sign_at

    def spy(c, m, e=0):
        points.append((tuple(c), m, e))
        return sign_at(c, m, e)

    monkeypatch.setattr(realroots, "_sign_at", spy)
    assert count_real_roots(p, iv) == sturm_only_count(p, iv) == 3
    assert len(points) == len(set(points)) == 12


def is_grid_cell(iv, a, span):
    """iv is a cell of the dyadic grid on [a, a + span]."""
    k = span / iv.width
    return k.denominator == 1 and k.numerator & (k.numerator - 1) == 0 and (
        (iv.lo - a) / iv.width
    ).denominator == 1


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(-40, 40)),
        min_size=1,
        max_size=5,
        unique_by=dyadic,
    ),
    st.sampled_from(WIDTHS),
)
@settings(max_examples=60, deadline=None)
def test_exact_guesses_pick_the_bisection_cells(factors, width):
    # with the exact roots as guesses the picked cells are those of
    # bisection; when a root is a grid point that bisection meets, it
    # nudges off the grid, and the picker must give up
    p = poly([1])
    for a, b in factors:
        p = p * poly([-b, 2**a])
    c = realroots._Coeffs(primitive_integer_coeffs(p))
    bound = 1 + max(abs(v) for v in c[:-1]) // abs(c[-1]) + 1
    chain = [realroots._Coeffs(f) for f in exactpoly._int_prs(c, exactpoly._int_derivative(c))]
    counter = realroots._SturmCounter(chain)
    guesses = [float(dyadic(f)) for f in factors]
    wn, wd = width.numerator, width.denominator
    cells = realroots._pick_cells(c, -bound, bound, wn, wd, counter.above, guesses)
    want = sturm_only_intervals(p, width)
    assert (cells is not None) == all(is_grid_cell(iv, -bound, 2 * bound) for iv in want)
    if cells is not None:
        got = [Interval(Fraction(x, 1 << e), Fraction(y, 1 << e)) for x, y, e in cells]
        assert sorted(got, key=lambda iv: iv.lo) == list(want)


def test_three_root_trig_bracket_is_bisected(monkeypatch):
    # a TrigBracket that spans three windows of the D8 ladder has the
    # signs of a bracket, but its final cell depends on the bisection path
    n, width = 8, Fraction(1, 1024)
    h, ladder = h_of("D", n), realroots._d_ladder(n)
    b = TrigBracket(j=0, phi_lo=0.0, phi_hi=1.0, g_lo=1.0, g_hi=-1.0,
                    x_interval=Interval(ladder[3], ladder[0]))
    want = ref_refine(b.x_interval, h, width)
    for iv in isolate_real_roots(h, width)[-3:]:
        # a guess at each of its roots
        monkeypatch.setattr(realroots, "_d_root", lambda n, lo, hi, x=float(iv.lo): x)
        assert refine_bracket(b, h, width) == want


def test_bracket_validates_sign_pattern():
    with pytest.raises(ValueError):
        TrigBracket(
            j=0,
            phi_lo=0.0,
            phi_hi=1.0,
            g_lo=-1.0,
            g_hi=1.0,
            x_interval=Interval(Fraction(-2), Fraction(-1)),
        )


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
@settings(max_examples=40, deadline=None)
def test_known_roots_are_counted_and_isolated(roots):
    p = poly([1])
    for r in roots:
        p = p * poly([-r, 1])
    assert count_real_roots(p) == len(roots)
    ivs = isolate_real_roots(p, Fraction(1, 4))
    assert len(ivs) == len(roots)
    for r, iv in zip(sorted(roots), ivs):
        assert iv.lo <= r <= iv.hi


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_distinct_count_never_exceeds_degree(cs):
    p = poly(cs)
    if p.is_zero or p.degree < 1:
        return
    rep = is_real_rooted(p)
    assert 0 <= rep.distinct_real <= rep.real_with_multiplicity <= rep.degree


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Interval(1, 1), "need lo < hi, got [1, 1]"),
        (lambda: sturm_chain(poly([3])), "sturm_chain needs degree >= 1"),
        (lambda: count_real_roots(poly([])), "zero polynomial"),
        (lambda: is_real_rooted(poly([])), "zero polynomial"),
        (lambda: isolate_real_roots(poly([])), "zero polynomial"),
        (lambda: TrigBracket(0, 0.0, 1.0, 1.0, 1.0, Interval(-2, -1)),
         "window value at phi_hi has the wrong sign (j=0)"),
        (lambda: TrigBracket(0, 0.0, 1.0, 1.0, -1.0, Interval(-1, 0)), "bracket endpoints must be negative"),
    ],
    ids=["empty_interval", "constant_chain", "count_zero", "real_rooted_zero", "isolate_zero",
         "bracket_sign", "bracket_endpoint"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


def test_interval_is_open_and_a_constant_has_no_roots():
    iv = Interval(1, 2)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert iv.lo not in iv and iv.hi not in iv and Fraction(3, 2) in iv
    c = poly([3])
    assert count_real_roots(c) == 0 and count_real_roots(c, iv) == 0
    assert is_real_rooted(c) == RootReport(0, 0, 0, True)
    assert isolate_real_roots(c) == ()


# The float sign pass.  _float_sign may leave a sign open (None) but
# must never give a wrong one; _sign_at sends what it leaves open to
# _exact_sign.


def linear_product(roots):
    """Integer coefficients of the product of q x - p over the roots p / q."""
    c = [1]
    for r in roots:
        p, q = r.numerator, r.denominator
        c = [q * a - p * b for a, b in zip([0] + c, c + [0])]
    return c


def check_passes(cc, n, e):
    """The float pass, where it decides the sign of cc at n / 2^e, agrees with the exact sign."""
    want = realroots._exact_sign(list(cc), n, e)
    got = realroots._float_sign(cc, n, cc.q << e)
    assert got in ({None} if want == 0 else {want, None})
    assert realroots._sign_at(cc, n, e) == want


ROOT = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))


@given(st.lists(ROOT, min_size=1, max_size=8), st.integers(1, 2**40), st.integers(0, 70))
@settings(max_examples=150, deadline=None)
def test_cheap_passes_never_give_a_wrong_sign(roots, q, e):
    c = linear_product(roots)
    plain = realroots._Coeffs(c)
    scaled = realroots._Coeffs(c, q)
    for r in roots:
        # at the root: dyadic roots on the plain polynomial, every root
        # on the one scaled by its denominator, and on a grid of the
        # denominator over integers already scaled by q, whose floats
        # are those integers (with a step either side)
        if r.denominator & (r.denominator - 1) == 0:
            check_passes(plain, r.numerator, r.denominator.bit_length() - 1)
        check_passes(realroots._Coeffs(c, r.denominator), r.numerator, 0)
        twice = realroots._Coeffs(scaled, r.denominator)
        assert twice == realroots._Coeffs(c, q * r.denominator)
        for k in (-1, 0, 1):
            check_passes(twice, r.numerator * q + k, 0)
        # a few ulps off it, on the plain grid 2^-60 and on y / q
        num, den = float(r).as_integer_ratio()
        for k in range(-3, 4):
            check_passes(plain, (num << 60) // den + k, 60)
            check_passes(scaled, math.floor(r * (q << e)) + k, e)
    # far out, x = n on both sides
    for n in (2**600 + 1, 3 - 2**640):
        check_passes(plain, n, 0)
        check_passes(plain, n << e, e)
        check_passes(scaled, n * q << e, e)


def test_float_pass_decides_far_from_the_roots():
    # away from its roots a product of linear factors is well conditioned,
    # and scaled coefficients beyond 2^1024 are screened on the unscaled ones
    c = linear_product([Fraction(1, 3), Fraction(-2), Fraction(5, 7)])
    for cc in (realroots._Coeffs(c), realroots._Coeffs(c, 3**700)):
        for n, e in ((7, 0), (-7, 1), (1, 30), (2**900, 0)):
            n = n * cc.q
            assert realroots._float_sign(cc, n, cc.q << e) == realroots._exact_sign(list(cc), n, e)
    assert max(map(abs, realroots._Coeffs(c, 3**700))) > 2**1024


def test_huge_coefficients_leave_the_float_pass_open():
    # a coefficient above 2^1024 has no float, and a sum that overflows
    # is inf: neither may decide a sign
    for c in ([2**1100, -3, 1], [1, -3, 2**1030]):
        cc = realroots._Coeffs(c)
        assert cc.floats is None
        for n, e in ((0, 0), (1, 0), (-1, 0), (5, 2), (-(2**700), 0)):
            assert realroots._float_sign(cc, n, 1 << e) is None
            assert realroots._sign_at(cc, n, e) == realroots._exact_sign(c, n, e)
    cc = realroots._Coeffs([-(2**1023)] * 3)
    assert realroots._float_sign(cc, 1, 1) is None
    assert realroots._float_sign(cc, 7, 8) is None


def exact_calls(monkeypatch):
    calls = []
    exact = realroots._exact_sign
    monkeypatch.setattr(realroots, "_exact_sign", lambda *a: calls.append(a) or exact(*a))
    return calls


def test_a_sign_at_a_root_reaches_the_exact_pass(monkeypatch):
    calls = exact_calls(monkeypatch)
    c = linear_product([Fraction(-3, 4), Fraction(5, 3), Fraction(7)])
    assert realroots._sign_at(realroots._Coeffs(c), -3, 2) == 0
    assert realroots._sign_at(realroots._Coeffs(c, 3), 5, 0) == 0
    assert len(calls) == 2


# SHA-256 of isolate_real_roots for A/B/C 1..30 and D 3..30, and of
# refine_bracket on each D bracket, at the widths below; recorded with
# exact Horner signs only.  Faster signs or a changed picker must give
# the same bytes.
ISOLATION_DIGEST = "3c6064937ae6490daff5fddb4e5098f1565fc16e93242adc8c3794e6e49fa112"


def test_isolation_bytes_match_the_exact_sign_digest():
    lines = []
    for tag in "ABCD":
        for n in range(3 if tag == "D" else 1, 31):
            h = h_of(tag, n)
            for w in (Fraction(1, 1024), Fraction(1, 7), Fraction(3), Fraction(1, 10**6)):
                ivs = list(isolate_real_roots(h, w))
                if tag == "D":
                    ivs += [refine_bracket(b, h, w) for b in d_type_brackets(n)]
                lines.append(f"{tag}{n} {w}: " + " ".join(f"[{iv.lo}, {iv.hi}]" for iv in ivs))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ISOLATION_DIGEST


def test_b97_to_b120_are_picked_at_a_millionth(monkeypatch):
    # the largest root's guess takes an exact Newton step, so no rank
    # falls back to bisection on root counts
    calls = []
    bisect = realroots._bisect_cells
    monkeypatch.setattr(realroots, "_bisect_cells", lambda *a: calls.append(a) or bisect(*a))
    for n in range(97, 121):
        isolate_real_roots(h_of("B", n), Fraction(1, 10**6))
    assert calls == []


# n - distinct_real of h_B on both sides of the ranks where it steps up by 2
B_NON_REAL = {15: 0, 16: 2, 38: 2, 39: 4, 69: 4, 70: 6,
              109: 6, 110: 8, 156: 8, 157: 10, 210: 10, 211: 12}


def test_type_b_non_real_counts_step_at_their_thresholds(monkeypatch):
    # every count comes from a ladder and Pellet discs that close: a
    # Sturm chain, or Yun's integer gcds, would build a remainder sequence
    calls = []
    prs = exactpoly._int_prs
    monkeypatch.setattr(realroots, "_int_prs", lambda *a: calls.append(a) or prs(*a))
    monkeypatch.setattr(exactpoly, "_int_prs", lambda *a: calls.append(a) or prs(*a))
    for n, non_real in B_NON_REAL.items():
        rep = is_real_rooted(h_of("B", n))
        assert (n - rep.distinct_real, rep.real_with_multiplicity) == (non_real, rep.distinct_real)
    assert calls == []
