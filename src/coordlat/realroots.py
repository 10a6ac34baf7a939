"""Exact real-root counting, isolation, and root-bracketing ladders.

Every count is certified exactly, by one of two devices.

A ladder is a decreasing list of r+1 rationals at which a polynomial
takes exact, strictly alternating signs (Horner evaluation in
integers); r sign changes prove r distinct real roots, one between
each pair of adjacent rungs.  The closed forms of types A, C and D
come with float root separators: -tan^2(j pi / 2n) for C and D, and
x = (t-1)/(t+1) at t = cos(k pi / (n + 1/2)) for A, from the Legendre
identity h_A(x) = (1-x)^n P_n((1+x)/(1-x)) and Szego's interlacing of
the Legendre zeros.  Floats only pick the rungs; each is rounded to a
rational with denominator at most 2^32 and its sign checked exactly,
and a rung that fails is moved toward a neighbour or the polynomial
falls back to Sturm.

Type B has complex roots from rank 16 on (every rank checked, up to
200), so its ladder is paired with root discs.  Under x = -tan^2(theta)
the closed form becomes
g(theta) = cos((2n+1) theta) + 2n sin^2 theta cos theta cos^(n-1)(2 theta)
on (0, pi/2), up to the positive factor cos^(2n+1) theta.  The sign
changes of g on a float grid give the rungs; complex Newton on g, from
the dips of |g| that do not cross zero, gives one guess per complex
pair.  Each guess is proven by Pellet's test for one root (Rouche) on a
Gaussian-integer Taylor shift, with integer square-root bounds on the
moduli, in a disc that misses the real axis; m pairwise disjoint discs
prove 2m non-real roots.  Only when r + 2m is the degree does the
ladder certify the count; otherwise B falls back to Sturm.

Every other polynomial (products, exceptional types, custom input) is
counted with a Sturm chain built from its squarefree part by a
primitive pseudo-remainder sequence, which keeps every element an exact
positive rational multiple of the textbook chain element, so sign
variations are unchanged.

Isolation bisects on root counts from whichever device certified the
polynomial; once a subinterval holds a single root it is refined on
the sign of the squarefree part alone.  Every point visited is dyadic,
held as (n, e) for n / 2^e: its sign is that of 2^(e d) c(n / 2^e) by
Horner with shifts, a rung p / q is compared with it as p 2^e against
n q, and only the returned ends become fractions.  refine_bracket runs
the same kernel on q^d c(y / q), q the denominator of the bracket.

For type D the ladder nodes also have a trigonometric reading:
substituting x = -tan^2(phi/2) turns the polynomial into cos(n phi)
plus a small perturbation whose sign at the nodes j pi / n alternates,
so each window (j pi / n, (j+1) pi / n) brackets exactly one root.
With one root per window, bisection ends in the grid cell of that
root, which the signs at the grid points in and beside the root's
isolation interval fix; refine_bracket reads it off there, and bisects
only when those signs do not prove it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .coordinator import _CLOSED_FORMS, MIN_RANK
from .exactpoly import (
    Polynomial,
    _int_derivative,
    _int_prem,
    _int_primitive,
    poly,
    primitive_integer_coeffs,
    squarefree_decomposition,
    squarefree_part,
)

__all__ = [
    "SturmChain",
    "Interval",
    "RootReport",
    "TrigBracket",
    "BracketingError",
    "sturm_chain",
    "count_real_roots",
    "is_real_rooted",
    "isolate_real_roots",
    "trig_values",
    "d_type_brackets",
    "refine_bracket",
]


@dataclass(frozen=True)
class Interval:
    """Rational interval with lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo >= self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo < Fraction(x) < self.hi


@dataclass(frozen=True)
class SturmChain:
    """Sign-variation chain: squarefree polynomial, derivative, negated remainders."""

    chain: tuple[Polynomial, ...]


@dataclass(frozen=True)
class RootReport:
    """Real-root summary of one polynomial."""

    degree: int
    distinct_real: int
    real_with_multiplicity: int
    is_real_rooted: bool

    def __post_init__(self) -> None:
        if self.real_with_multiplicity > self.degree:
            raise ValueError("more roots than the degree allows")
        if self.is_real_rooted != (self.real_with_multiplicity == self.degree):
            raise ValueError("verdict contradicts the counts")


@dataclass(frozen=True)
class TrigBracket:
    """One certified root bracket of a type D coordinator polynomial.

    The float fields describe the trigonometric window; x_interval is
    the exact rational certificate (opposite signs at its endpoints).
    """

    j: int
    phi_lo: float
    phi_hi: float
    g_lo: float
    g_hi: float
    x_interval: Interval

    def __post_init__(self) -> None:
        want_lo = 1 if self.j % 2 == 0 else -1
        if (self.g_lo > 0) - (self.g_lo < 0) != want_lo:
            raise ValueError(f"window value at phi_lo has the wrong sign (j={self.j})")
        if (self.g_hi > 0) - (self.g_hi < 0) != -want_lo:
            raise ValueError(f"window value at phi_hi has the wrong sign (j={self.j})")
        if self.x_interval.hi >= 0:
            raise ValueError("bracket endpoints must be negative")


class BracketingError(RuntimeError):
    """Float screen or exact verification failed for one bracket node."""

    def __init__(self, j: int, value: float, needed: float, detail: str):
        self.j = j
        self.value = value
        self.needed = needed
        super().__init__(f"node j={j}: {detail} (value {value!r}, needed {needed!r})")


# ---------------------------------------------------------------------------
# exact signs and the Sturm chain
# ---------------------------------------------------------------------------


def _signed_chain(c: list[int]) -> list[list[int]]:
    """Primitive signed remainder chain for squarefree integer coefficients c."""
    chain = [list(c), _int_derivative(list(c))]
    while len(chain[-1]) > 1:
        r = _int_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_int_primitive([-x for x in r]))
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _scaled(c: list[int], q: int) -> list[int]:
    """Coefficients of q^d c(y / q): the roots of c times q, the signs kept."""
    out = list(c)
    qk = 1
    for k in range(len(c) - 2, -1, -1):
        qk *= q
        out[k] *= qk
    return out


def _sign_at(c: list[int], n: int, e: int = 0) -> int:
    """Exact sign of c at n / 2^e: of 2^(e d) c(n / 2^e), Horner with shifts."""
    acc = c[-1]
    shift = 0
    for ck in reversed(c[:-1]):
        shift += e
        acc = acc * n + (ck << shift)
    return _sign(acc)


def _rational_sign(c: list[int], r: Fraction) -> int:
    """Exact sign of c at the rational r, an integer point once scaled."""
    return _sign_at(_scaled(c, r.denominator), r.numerator)


def _variations(signs: list[int]) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def _var_at_infinity(chain: list[list[int]], positive: bool) -> int:
    signs = []
    for c in chain:
        s = _sign(c[-1])
        if not positive and (len(c) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def _squarefree_int(p: Polynomial) -> list[int]:
    sf, _ = squarefree_part(p)
    return list(primitive_integer_coeffs(sf))


def sturm_chain(p: Polynomial) -> SturmChain:
    """Sturm chain of the squarefree part of p.

    Remainder elements are reduced to primitive integer coefficients; a
    positive scaling never moves a sign, so variation counts match the
    unreduced chain.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("sturm_chain needs degree >= 1")
    sf = _squarefree_int(p)
    return SturmChain(tuple(poly(c) for c in _signed_chain(sf)))


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------

_LADDER_STEPS = (
    Fraction(1, 16),
    Fraction(1, 8),
    Fraction(1, 4),
    Fraction(7, 16),
)


def _fix_ladder(c: list[int], ladder: list[Fraction]) -> list[Fraction]:
    """Make sign(h(ladder[j])) = (-1)^j exact, widening toward neighbors.

    The float-derived ladder essentially always verifies as built; this
    repairs the rare endpoint that landed on the wrong side of a root
    by stepping it toward an adjacent rung.
    """
    n = len(ladder) - 1
    out = list(ladder)
    for j in range(n + 1):
        want = 1 if j % 2 == 0 else -1
        if _rational_sign(c, out[j]) == want:
            continue
        candidates = []
        for step in _LADDER_STEPS:
            if j > 0:
                candidates.append(out[j] + step * (out[j - 1] - out[j]))
            if j < n:
                candidates.append(out[j] + step * (out[j + 1] - out[j]))
        if j == 0:
            candidates.extend(out[0] / 2**k for k in (1, 2, 3, 4))
        if j == n:
            candidates.extend(out[n] * 2**k for k in (1, 2, 3, 4))
        fixed = None
        for cand in candidates:
            if cand >= 0:
                continue
            if _rational_sign(c, cand) == want:
                fixed = cand
                break
        if fixed is None:
            raise BracketingError(
                j, float(out[j]), float(want), "exact sign verification failed"
            )
        out[j] = fixed
    if any(out[i] <= out[i + 1] for i in range(n)):
        raise BracketingError(0, 0.0, 0.0, "ladder lost strict monotonicity")
    return out


def _ladder(c: list[int], separators: list[float]) -> list[Fraction]:
    """Exact ladder for c, positive leading coefficient and c(0) > 0.

    The rungs are -1/2^40, the n-1 float separators (decreasing,
    rounded to denominators at most 2^32), and -(1 + max|c_k|), below
    every root when the leading coefficient is 1.  Raises
    BracketingError when no rung repair restores the alternation.
    """
    rungs = [Fraction(-1, 2**40)]
    rungs += [Fraction(t).limit_denominator(2**32) for t in separators]
    rungs.append(Fraction(-(1 + max(abs(v) for v in c))))
    return _fix_ladder(c, rungs)


def _tan_separators(n: int) -> list[float]:
    """-tan^2(j pi / 2n), j = 1..n-1: between the roots of h_C and of h_D.

    h_C(-tan^2 u) is a positive multiple of cos(2n u), so its roots
    sit at u = (2k+1) pi / 4n, midway between these nodes; for h_D the
    node signs are those of the window function in trig_values.
    """
    return [-math.tan(j * math.pi / (2 * n)) ** 2 for j in range(1, n)]


def _legendre_separators(n: int) -> list[float]:
    """(t-1)/(t+1) at t = cos(k pi / (n + 1/2)), k = 1..n-1: between the roots of h_A.

    The k-th Legendre zero cos(theta_k) has theta_k strictly between
    (k - 1/2) pi / (n + 1/2) and k pi / (n + 1/2) (Szego, Orthogonal
    Polynomials, Thm 6.21.2), and t -> (t-1)/(t+1) is increasing.
    """
    out = []
    for k in range(1, n):
        t = math.cos(k * math.pi / (n + 0.5))
        out.append((t - 1) / (t + 1))
    return out


def _b_newton(n: int, theta: complex) -> complex | None:
    """Complex Newton on g(theta) = h_B(-tan^2 theta) cos^(2n+1) theta.

    With x = -tan^2 theta, the even slice of (1+x)^(2n+1) becomes
    cos((2n+1) theta) / cos^(2n+1) theta and 1 + x becomes
    cos(2 theta) / cos^2 theta, so
    g = cos((2n+1) theta) + 2n sin^2 theta cos theta cos^(n-1)(2 theta).
    Returns None when the iteration does not settle.
    """
    k = 2 * n + 1
    try:
        for _ in range(50):
            s, co, c2 = cmath.sin(theta), cmath.cos(theta), cmath.cos(2 * theta)
            pw = c2 ** (n - 2)
            g = cmath.cos(k * theta) + 2 * n * s * s * co * c2 * pw
            dg = -k * cmath.sin(k * theta) + 2 * n * pw * (
                (2 * s * co * co - s**3) * c2 - 2 * (n - 1) * s * s * co * cmath.sin(2 * theta)
            )
            step = g / dg
            theta -= step
            if abs(step) < 1e-13:
                return theta
    except (ZeroDivisionError, OverflowError):
        pass
    return None


def _b_proposal(n: int) -> tuple[list[float], list[complex]]:
    """Float separators and complex-root guesses for h_B of degree n.

    g is sampled at 32 (2n+1) points of (0, pi/2); samples where |g|
    is below float noise are dropped (near pi/2 the two terms of g
    cancel).  The separators are -tan^2 of the midpoints between
    consecutive sign changes.  Each local minimum of |g| without a sign
    change seeds complex Newton at a root of the parabola through the
    three samples around it; every distinct non-real hit x, taken with
    Im x > 0, is one guess for a complex-conjugate pair.
    """
    k = 2 * n + 1
    steps = 32 * k
    h = math.pi / (2 * steps)
    noise = 2.0**-46 * k
    cos = math.cos
    roots: list[float] = []
    dips = []
    # the last two samples kept, streamed so that no sample list is stored
    t0 = g0 = t1 = g1 = None
    for i in range(1, steps):
        t = i * h
        co = cos(t)
        cc = co * co
        tail = 2 * n * (1 - cc) * co * (2 * cc - 1) ** (n - 1)
        g = cos(k * t) + tail
        if abs(g) <= noise * (1 + abs(tail)):
            continue
        if g1 is not None:
            if (g1 > 0) != (g > 0):
                roots.append((t1 + t) / 2)
            elif g0 is not None and (g0 > 0) == (g1 > 0) and abs(g0) > abs(g1) <= abs(g):
                dips.append((t0, g0, t1, g1, t, g))
        t0, g0, t1, g1 = t1, g1, t, g
    separators = [-math.tan((a + b) / 2) ** 2 for a, b in zip(roots, roots[1:])]
    guesses: list[complex] = []
    for t0, g0, t1, g1, t2, g2 in dips:
        # g ~ g1 + b (t - t1) + a (t - t1)^2 through the three samples
        a = ((g2 - g1) / (t2 - t1) - (g1 - g0) / (t1 - t0)) / (t2 - t0)
        b = (g1 - g0) / (t1 - t0) + a * (t1 - t0)
        theta = _b_newton(n, t1 + (-b + cmath.sqrt(b * b - 4 * a * g1)) / (2 * a))
        if theta is None:
            continue
        try:
            x = -cmath.tan(theta) ** 2
        except OverflowError:
            continue
        x = complex(x.real, abs(x.imag))
        if not cmath.isfinite(x) or x.imag <= 1e-9 * abs(x):
            continue
        if all(abs(x - y) > 1e-6 * abs(x) for y in guesses):
            guesses.append(x)
    return separators, guesses


@dataclass(frozen=True)
class _Disc:
    """Open disc with center (u + iv) / 2^s and radius 2^(e-s), e >= 0."""

    u: int
    v: int
    s: int
    e: int


def _ceil_sqrt(m: int) -> int:
    r = math.isqrt(m)
    return r if r * r == m else r + 1


def _shift_bounds(c: list[int], u: int, v: int, s: int) -> tuple[int, list[int]]:
    """floor |A_1| and ceil |A_j| for the Taylor coefficients A_j of P at u + iv.

    P(y) = 2^(s n) c(y / 2^s) has integer coefficients, and P(u + iv + t)
    = sum A_j t^j has Gaussian-integer ones, from n rounds of synthetic
    division by t - (u + iv).
    """
    n = len(c) - 1
    re = [ck << (s * (n - k)) for k, ck in enumerate(c)]
    im = [0] * (n + 1)
    for i in range(n):
        ar, ai = re[n], im[n]
        for j in range(n - 1, i - 1, -1):
            ar, ai = re[j] + u * ar - v * ai, im[j] + u * ai + v * ar
            re[j], im[j] = ar, ai
    mod2 = [a * a + b * b for a, b in zip(re, im)]
    return math.isqrt(mod2[1]), [_ceil_sqrt(m) for m in mod2]


def _pellet(lo1: int, hi: list[int], e: int) -> bool:
    """Pellet's test for one root in |t| < 2^e: |A_1| R > |A_0| + sum_{j>=2} |A_j| R^j."""
    return lo1 << e > hi[0] + sum(hi[j] << (j * e) for j in range(2, len(hi)))


def _disc_holds(c: list[int], d: _Disc) -> bool:
    """d misses the real axis and, by Rouche, holds exactly one root of c."""
    return 1 << d.e < d.v and _pellet(*_shift_bounds(c, d.u, d.v, d.s), d.e)


def _disjoint(discs: list[_Disc]) -> bool:
    """No two discs meet; centers and radii compared exactly on a common grid."""
    for i, a in enumerate(discs):
        for b in discs[i + 1 :]:
            s = max(a.s, b.s)
            du = (a.u << (s - a.s)) - (b.u << (s - b.s))
            dv = (a.v << (s - a.s)) - (b.v << (s - b.s))
            r = (1 << (a.e + s - a.s)) + (1 << (b.e + s - b.s))
            if du * du + dv * dv <= r * r:
                return False
    return True


def _root_disc(c: list[int], x: complex, spacing: float) -> _Disc | None:
    """The smallest proven disc 2^(e-s) around the guess x, or None.

    spacing estimates the distance from x to the real axis and to every
    other root.  The center is rounded to the grid 2^-s with 2^-s at
    most spacing / 16n, so a radius of a few grid steps stays well
    inside the spacing / 4n that Pellet's test tolerates.
    """
    n = len(c) - 1
    s = max(0, math.ceil(math.log2(16 * n / spacing)))
    u, v = (round(Fraction(t) * 2**s) for t in (x.real, x.imag))
    lo1, hi = _shift_bounds(c, u, v, s)
    e = max(0, hi[0].bit_length() - lo1.bit_length() + 1)
    while 1 << e < v:
        if _pellet(lo1, hi, e):
            return _Disc(u, v, s, e)
        e += 1
    return None


def _b_certificate(c: list[int]) -> tuple[list[float], list[_Disc]]:
    """Separators for the real roots of h_B and exact discs for its complex pairs.

    Each disc lies in the upper half-plane and holds exactly one root,
    so m pairwise disjoint discs prove 2m non-real roots, the conjugates
    included.  Any guess without a proven disc, or two discs that meet,
    leaves no discs at all, so the count cannot close.
    """
    separators, guesses = _b_proposal(len(c) - 1)
    discs = []
    for x in guesses:
        # the separators stand in for the real roots they separate
        others = [abs(x - y) for y in separators + guesses if y != x]
        d = _root_disc(c, x, min([x.imag] + others))
        if d is None:
            return separators, []
        discs.append(d)
    return separators, discs if _disjoint(discs) else []


def _ladder_only(
    separators: Callable[[int], list[float]]
) -> Callable[[list[int]], tuple[list[float], list[_Disc]]]:
    return lambda c: (separators(len(c) - 1), [])


# per family: float separators for the real roots and exact discs for
# the others; B1 = A1 and B2 = C2 keep the plain ladders
_CERTIFICATES = {
    "A": _ladder_only(_legendre_separators),
    "C": _ladder_only(_tan_separators),
    "D": _ladder_only(_tan_separators),
    "B": _b_certificate,
}


@lru_cache(maxsize=256)
def _closed_form(tag: str, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in _CLOSED_FORMS[tag](n).coeffs)


def _certified_ladder(c: list[int]) -> list[Fraction] | None:
    """Ladder of c when c is a closed form of its degree and the count closes.

    The r + 1 rungs prove r distinct real roots and the m discs 2m
    non-real ones; when r + 2m is the degree, each ladder window holds
    exactly one root and no real root lies outside the ladder.
    """
    n = len(c) - 1
    key = tuple(c)
    for tag, certificate in _CERTIFICATES.items():
        if n >= MIN_RANK[tag] and _closed_form(tag, n) == key:
            separators, discs = certificate(c)
            if len(separators) + 1 + 2 * len(discs) != n:
                return None
            try:
                return _ladder(c, separators)
            except BracketingError:
                return None
    return None


# ---------------------------------------------------------------------------
# root counters: N(x) = number of distinct roots greater than x
# ---------------------------------------------------------------------------


class _SturmCounter:
    """N(x) = V(x) - V(+inf) on a signed remainder chain of squarefree c."""

    def __init__(self, chain: list[list[int]]):
        self.chain = chain
        self._v_top = _var_at_infinity(chain, True)
        self.total = _var_at_infinity(chain, False) - self._v_top

    def above(self, n: int, e: int, s: int) -> int:
        """Roots greater than n / 2^e; s, the sign of c there, is not needed."""
        return _variations([_sign_at(f, n, e) for f in self.chain]) - self._v_top


class _LadderCounter:
    """N(x) from a certified ladder: one binary search and the sign of c at x."""

    def __init__(self, rungs: list[Fraction]):
        self.rungs = rungs
        self.total = len(rungs) - 1
        self._pq = [(r.numerator, r.denominator) for r in rungs]

    def above(self, n: int, e: int, s: int) -> int:
        """Roots greater than n / 2^e; s must be the exact sign of c there."""
        pq = self._pq
        lo, hi = 0, len(pq)
        while lo < hi:
            mid = (lo + hi) // 2
            p, q = pq[mid]
            if p << e > n * q:
                lo = mid + 1
            else:
                hi = mid
        # rungs[:lo] lie above x, with one root between each adjacent pair
        if lo == 0 or lo == len(pq) or pq[lo][0] << e == n * pq[lo][1]:
            return min(lo, self.total)
        # x is inside window lo-1, whose root lies above x exactly when
        # c(x) has the sign c takes at the lower rung, (-1)^lo
        return lo - 1 + (s == (1 if lo % 2 == 0 else -1))


def _root_counter(c: list[int]) -> _SturmCounter | _LadderCounter:
    """Ladder counter when one certifies, else Sturm; c squarefree, positive leading."""
    rungs = _certified_ladder(c)
    return _SturmCounter(_signed_chain(c)) if rungs is None else _LadderCounter(rungs)


def count_real_roots(p: Polynomial, interval: Interval | None = None) -> int:
    """Number of distinct real roots of p, on the whole line or in an interval.

    On an interval [a, b] the roots in (a, b] are N(a) - N(b), with N
    the number of roots above a point, even when a or b is a root; an
    exact check of p(a) = 0 adds the left endpoint.  Both are counted
    as integers on q^d p(y / q), q their common denominator.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return 0
    sf = _squarefree_int(p)
    counter = _root_counter(sf)
    if interval is None:
        return counter.total
    q = math.lcm(interval.lo.denominator, interval.hi.denominator)
    if isinstance(counter, _LadderCounter):
        counter = _LadderCounter([r * q for r in counter.rungs])
    else:
        counter = _SturmCounter([_scaled(f, q) for f in counter.chain])
    c = _scaled(sf, q)
    lo, hi = int(interval.lo * q), int(interval.hi * q)
    s_lo = _sign_at(c, lo)
    return counter.above(lo, 0, s_lo) - counter.above(hi, 0, _sign_at(c, hi)) + (s_lo == 0)


def is_real_rooted(p: Polynomial) -> RootReport:
    """Decide whether every root of p is real, counting multiplicities.

    The distinct count comes from the squarefree factors.  A closed form
    of type A, C or D is certified by a ladder alone; one of type B by a
    ladder for its real roots plus disjoint Pellet discs, one for each
    complex-conjugate pair, whose counts add up to the degree; any other
    factor, or a certificate that does not close, is counted by its
    Sturm chain.  The multiplicity-weighted count uses the factor
    multiplicities, and p is real-rooted exactly when that weighted
    count reaches the degree.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return RootReport(0, 0, 0, True)
    distinct = 0
    weighted = 0
    for f, m in squarefree_decomposition(p):
        k = _root_counter(list(primitive_integer_coeffs(f))).total
        distinct += k
        weighted += m * k
    return RootReport(p.degree, distinct, weighted, weighted == p.degree)


# ---------------------------------------------------------------------------
# isolation and refinement on the dyadic grid: a point is n / 2^e, and an
# interval (a, b, e) is [a / 2^e, b / 2^e], both ends on one grid
# ---------------------------------------------------------------------------


def _nonroot_split(c: list[int], a: int, b: int, e: int) -> tuple[int, int, int]:
    """(m, k, s): c has sign s != 0 at m / 2^(e+k), strictly inside (a, b) / 2^e.

    The midpoint first (k = 1), then mid -/+ (b - a) / 2^(e+k) for k = 3, 4, ...
    """
    m = a + b
    s = _sign_at(c, m, e + 1)
    if s:
        return m, 1, s
    k = 3
    while True:
        for cand in ((m << (k - 1)) - (b - a), (m << (k - 1)) + (b - a)):
            s = _sign_at(c, cand, e + k)
            if s:
                return cand, k, s
        k += 1


def _bisect_sign(
    c: list[int], a: int, b: int, e: int, s_a: int, wn: int, wd: int
) -> tuple[int, int, int]:
    """Shrink (a, b, e), holding one sign change of c, to width at most wn / wd."""
    while (b - a) * wd > wn << e:
        # split points are chosen off the roots, so signs stay decisive
        m, k, s = _nonroot_split(c, a, b, e)
        a, b, e = a << k, b << k, e + k
        if s == s_a:
            a = m
        else:
            b = m
    return a, b, e


def _isolate(
    c: list[int], width: Fraction, counter: _SturmCounter | _LadderCounter
) -> tuple[Interval, ...]:
    """Bisection on counter's root counts for squarefree c, then sign refinement."""
    wn, wd = width.numerator, width.denominator
    bound = 1 + max(abs(v) for v in c[:-1]) // abs(c[-1]) + 1
    s_lo = _sign_at(c, -bound)
    n_lo = counter.above(-bound, 0, s_lo)
    n_hi = counter.above(bound, 0, _sign_at(c, bound))
    found: list[Interval] = []
    # (a, sign of c at a, N(a), b, N(b), e); no endpoint is a root
    stack = [(-bound, s_lo, n_lo, bound, n_hi, 0)]
    while stack:
        a, sa, na, b, nb, e = stack.pop()
        roots_here = na - nb
        if roots_here == 0:
            continue
        if roots_here == 1:
            # c is squarefree, so its one root here is a sign change
            a, b, e = _bisect_sign(c, a, b, e, sa, wn, wd)
            found.append(Interval(Fraction(a, 1 << e), Fraction(b, 1 << e)))
            continue
        m, k, sm = _nonroot_split(c, a, b, e)
        nm = counter.above(m, e + k, sm)
        stack.append((a << k, sa, na, m, nm, e + k))
        stack.append((m, sm, nm, b << k, nb, e + k))
    found.sort(key=lambda iv: iv.lo)
    return tuple(found)


def isolate_real_roots(
    p: Polynomial, width: Fraction = Fraction(1, 64)
) -> tuple[Interval, ...]:
    """Disjoint rational intervals, each holding exactly one distinct real root.

    Bisection on root counts (ladder or Sturm) from the Cauchy-style
    bound 1 + max|a_k| / |a_d|, midpoints nudged off the roots; a
    subinterval with one root is bisected on signs alone down to at
    most the requested width.  Every point visited is dyadic, n / 2^e,
    and is evaluated in integers; only the returned ends become
    fractions.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if p.degree < 1:
        return ()
    sf = _squarefree_int(p)
    return _isolate(sf, width, _root_counter(sf))


# ---------------------------------------------------------------------------
# trigonometric bracketing for type D
# ---------------------------------------------------------------------------


def trig_values(n: int, phi: float) -> tuple[float, float]:
    """Window function and its perturbation term at angle phi.

    Under x = -tan^2(phi/2) the degree-n type D coordinator polynomial
    is a positive multiple of cos(n phi) + envelope, where
    envelope = (n/2) sin^2(phi) cos^(n-2)(phi).  Returns (value,
    envelope).  For n >= 3 the envelope stays strictly below 1 in
    magnitude, which is what makes the sign pattern at the nodes
    j pi / n reliable.
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    s = math.sin(phi)
    c = math.cos(phi)
    envelope = 0.5 * n * s * s * c ** (n - 2)
    return math.cos(n * phi) + envelope, envelope


@lru_cache(maxsize=64)
def _d_ladder(n: int) -> tuple[Fraction, ...]:
    """The certified ladder of the degree-n type D closed form, n >= 3."""
    return tuple(_ladder(list(_closed_form("D", n)), _tan_separators(n)))


def d_type_brackets(n: int, margin: float | None = None) -> tuple[TrigBracket, ...]:
    """Certified brackets, one per root, for the type D coordinator polynomial.

    Maps the nodes j pi / n to rational x values with denominators at
    most 2^32 and verifies an exact sign change across every window.
    With a margin, the float window value at every node must also clear
    it in the alternating direction, or BracketingError is raised.
    Returns n brackets ordered from the root nearest zero (j = 0) to
    the most negative (j = n-1).
    """
    if n < 3:
        raise ValueError(
            f"needs n >= 3, got {n}; rank 2 has a double root and no distinct brackets"
        )
    node_values = [trig_values(n, j * math.pi / n)[0] for j in range(n + 1)]
    if margin is not None:
        for j, value in enumerate(node_values):
            signed = value if j % 2 == 0 else -value
            if signed < margin:
                raise BracketingError(
                    j, value, margin, "float interlacing margin violated"
                )
    ladder = _d_ladder(n)

    brackets = []
    for j in range(n):
        brackets.append(
            TrigBracket(
                j=j,
                phi_lo=j * math.pi / n,
                phi_hi=(j + 1) * math.pi / n,
                g_lo=node_values[j],
                g_hi=node_values[j + 1],
                x_interval=Interval(ladder[j + 1], ladder[j]),
            )
        )
    return tuple(brackets)


def _one_root_window(b: TrigBracket | Interval, c: list[int]) -> bool:
    """b is window j of the ladder of c, the type D closed form of degree n.

    n + 1 alternating rungs for n roots leave one simple root per window.
    """
    n = len(c) - 1
    if not isinstance(b, TrigBracket) or n < 3 or tuple(c) != _closed_form("D", n):
        return False
    try:
        ladder = _d_ladder(n)
    except BracketingError:
        return False
    return 0 <= b.j < n and b.x_interval == Interval(ladder[b.j + 1], ladder[b.j])


def _grid_cell(
    c: list[int], a: int, b: int, s_a: int, wn: int, wd: int, near: Interval, q: int
) -> tuple[int, int, int] | None:
    """The cell that bisecting (a, b) to width wn / wd ends in, read off near.

    (a, b) must hold exactly one root of c.  Of the cells that meet
    q near, at most 3 since at most 2 grid points lie inside it, the
    first whose ends have exact, nonzero, opposite signs holds that
    root strictly inside: then no grid point is a root, bisection never
    nudges, and it ends in this cell.  None if no cell qualifies.
    """
    t = 0
    while (b - a) * wd > wn << t:
        t += 1
    span, top = b - a, 1 << t
    # grid point i is ((a << t) + i span) / 2^t; first..last lie in q near
    first = math.ceil((near.lo * q - a) * top / span)
    last = math.floor((near.hi * q - a) * top / span)
    if last - first > 1:
        return None
    signs = {0: s_a, top: -s_a}

    def sign(i: int) -> int:
        if i not in signs:
            signs[i] = _sign_at(c, (a << t) + i * span, t)
        return signs[i]

    for i in range(max(first - 1, 0), min(last, top - 1) + 1):
        if sign(i) * sign(i + 1) == -1:
            return (a << t) + i * span, (a << t) + (i + 1) * span, t
    return None


def refine_bracket(
    b: TrigBracket | Interval, p: Polynomial, width: Fraction, near: Interval | None = None
) -> Interval:
    """Shrink a sign-change bracket to the requested width by bisection.

    The exact signs of p at the bracket endpoints must differ.  If the
    current width already satisfies the request the input interval is
    returned unchanged.  Scaled by the common denominator q of its
    ends, the bracket becomes an integer one for q^d p(y / q), which the
    dyadic kernel of isolate_real_roots bisects; the midpoints, and so
    the result, are those of bisecting the rationals.

    near, an interval around the same root no wider than the requested
    width, such as its isolation interval, lets a bracket of
    d_type_brackets(n) for its own polynomial skip the bisection: the
    window holds one root, so the signs at the grid points in and beside
    near fix the final cell.  A cell is taken only when its ends have
    exact, nonzero, opposite signs; otherwise the bracket is bisected.
    """
    iv = b.x_interval if isinstance(b, TrigBracket) else b
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    c = list(primitive_integer_coeffs(p))
    q = math.lcm(iv.lo.denominator, iv.hi.denominator)
    scaled = _scaled(c, q)
    lo, hi = int(iv.lo * q), int(iv.hi * q)
    s_lo, s_hi = _sign_at(scaled, lo), _sign_at(scaled, hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError("endpoint signs must be nonzero and opposite")
    wn, wd = width.numerator * q, width.denominator
    cell = None
    if near is not None and _one_root_window(b, c):
        cell = _grid_cell(scaled, lo, hi, s_lo, wn, wd, near, q)
    x, y, e = cell or _bisect_sign(scaled, lo, hi, 0, s_lo, wn, wd)
    return Interval(Fraction(x, q << e), Fraction(y, q << e))
