"""Exact real-root counting, isolation, and root-bracketing ladders.

Every count is certified exactly, by one of two devices.

A ladder is a decreasing list of r+1 rationals at which a polynomial
takes exact, strictly alternating signs (Horner in integers); r sign
changes prove r distinct real roots, one between adjacent rungs.  The
closed forms of types A, C and D come with float separators:
-tan^2(j pi / 2n) for C and D, and (t-1)/(t+1) at t = cos(k pi / (n + 1/2))
for A, from h_A(x) = (1-x)^n P_n((1+x)/(1-x)) and Szego's interlacing of
the Legendre zeros.  Floats only pick the rungs: each is rounded to the
grid 2^-32 (for the printed D brackets, to denominators at most 2^32),
and a rung whose exact sign fails sends the polynomial to Sturm.

Type B has complex roots from rank 16 on, so its ladder is paired with
root discs.  Under x = -tan^2(theta) h_B is a positive multiple of
g(theta) = cos((2n+1) theta) + 2n sin^2 theta cos theta cos^(n-1)(2 theta)
on (0, pi/2).  Sign changes of g give the rungs; g is sampled densely
only on the half-periods of cos((2n+1) theta) where the second term
reaches 1/4, near pi/2 and theta = 1/sqrt(2n).  Complex Newton from the
dips of |g| gives one guess per complex pair, proven by
Pellet's test (Rouche) on a Gaussian-integer Taylor shift in a disc off
the real axis.  Only when r + 2m is the degree does the ladder certify.

Every other polynomial is counted with a Sturm chain of its squarefree
part: a primitive pseudo-remainder sequence, each element a positive
multiple of the textbook one, so sign variations are unchanged.

Isolation returns the cells that bisection on these counts ends in,
from the bound 1 + max|c_k| / |c_d|, a one-root cell bisected on signs
alone.  Every point is dyadic, n / 2^e, and _sign_at takes the exact
sign of 2^(e d) c(n / 2^e) in two passes.  Float Horner at x = n / 2^e,
or on the reversed coefficients at 1 / x when |x| > 1, decides when
its value clears (6d + 8) 2^-53 sum |c_k x^k|, a proven bound on its
rounding error (Higham, section 5.1).  Exact Horner with shifts
decides the rest, roots among them.  Each certificate also gives float
roots (Legendre Newton for A, Newton on g for B, exactly for C, Newton
on the window function for D), from which _pick_cells reads the final
cells with exact checks; bisection runs only when they fail.
refine_bracket does the same on q^d c(y / q), q the denominator of the
bracket, and its float pass reads c itself at y / q: at rank 36 and q
near 2^32 the scaled coefficients reach 2^1150, past the float range.

For type D, x = -tan^2(phi/2) turns the polynomial into cos(n phi) plus
a small perturbation whose sign alternates at the nodes j pi / n, so
each window (j pi / n, (j+1) pi / n) brackets exactly one root.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import Callable

from .coordinator import _CLOSED_FORMS, MIN_RANK
from .exactpoly import (
    Polynomial,
    _int_derivative,
    _int_prs,
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
    """Rational interval, lo < hi: `in` tests (lo, hi); count_real_roots counts [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        # callers mostly pass Fractions already; convert only the others
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
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


# float root guesses of a closed form, computed only when asked for
_Guesses = Callable[[], list[float]]


# ---------------------------------------------------------------------------
# exact signs and the Sturm chain
# ---------------------------------------------------------------------------


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class _Coeffs(list):
    """Integer coefficients of q^d f(y / q), lowest degree first, with f's floats.

    The grid point y stands for x = y / q, and f's roots times q are the
    roots of the integers.  The float pass of _sign_at reads f itself at
    y / q: floats holds f's coefficients as (float, abs) pairs, lowest
    degree first, or None when one overflows a float.  Both halves come
    from (f, q) alone, so the two passes sign the same polynomial.
    """

    __slots__ = ("q", "floats")

    def __init__(self, f: list[int], q: int = 1):
        super().__init__(f)
        if q > 1:
            qk = 1
            for k in range(len(f) - 2, -1, -1):
                qk *= q
                self[k] *= qk
        self.q = q
        try:
            self.floats = [(a, abs(a)) for a in map(float, f)]
        except OverflowError:
            self.floats = None


_TINY = 2.0**-1022  # the least normal float


def _float_sign(c: _Coeffs, n: int, den: int) -> int | None:
    """Sign of f at x = n / den by float Horner, f the unscaled polynomial of c; or None.

    x is rounded once, by correctly rounded integer division.  For
    |x| > 1 the reversal r(y) = y^d f(1 / y) is evaluated at y = den / n
    instead, and f(x) = x^d r(1 / x) has sign sign(x)^d sign(r(y)); so
    the evaluation point z (x or y) has |z| <= 1 and x^d never overflows.
    A z below 2^-1022, other than the exact 0 of n = 0, leaves the sign
    open: it may have lost its relative precision to underflow.

    The bound (Higham, Accuracy and Stability of Numerical Algorithms,
    section 5.1 and Lemma 3.3, u = 2^-53): Horner computes
    sum a_k z^k (1 + t_k) with |t_k| <= gamma_(2d), for float
    coefficients a_k = c_k (1 + u_k) and z = z_exact (1 + u_0), |u_i| <= u.
    So every term c_k z_exact^k carries at most 3d + 1 rounding factors,
    and the computed v has |v - f| <= gamma_(3d+1) T + d 2^-1074, with
    T = sum |c_k| |z_exact|^k and the last term for underflow in the
    products (|z| <= 1 keeps it from growing).  The same Horner pass on
    |a_k| and |z| gives S >= T (1 - gamma_(3d+1)) - d 2^-1074.  For
    m = 3d + 1 with m u <= 1/4 (d < 2^50), gamma_m <= 4 m u / 3, so
    |v - f| <= 2 m u S plus at most 3 d 2^-1074; (6d + 8) u S +
    (d + 1) 2^-1070 covers this and the two roundings of the bound
    itself.  The sign of v is the sign of f when |v| is above the bound
    and both are finite; an overflow gives inf or nan and leaves the
    sign open, and so does a root of f.
    """
    if c.floats is None:
        return None
    d = len(c) - 1
    if abs(n) <= den:
        z, pairs, flip = n / den, reversed(c.floats), 1
    else:
        z, pairs, flip = den / n, c.floats, (-1 if n < 0 and d & 1 else 1)
    az = abs(z)
    if n and az < _TINY:
        return None
    v = s = 0.0
    for a, b in pairs:
        v = v * z + a
        s = s * az + b
    if (6 * d + 8) * 2.0**-53 * s + (d + 1) * 2.0**-1070 < abs(v) < math.inf:
        return flip if v > 0 else -flip
    return None


def _sign_at(c: _Coeffs, n: int, e: int = 0) -> int:
    """Exact sign of c at n / 2^e: of 2^(e d) c(n / 2^e).

    Float Horner on c's unscaled polynomial (_float_sign) decides where
    its proven error bound allows; exact Horner with shifts
    (_exact_sign) decides what it leaves open.
    """
    s = _float_sign(c, n, c.q << e)
    return _exact_sign(c, n, e) if s is None else s


def _exact_sign(c: list[int], n: int, e: int) -> int:
    """Sign of 2^(e d) c(n / 2^e), Horner in integers with shifts."""
    acc = c[-1]
    shift = 0
    for ck in reversed(c[:-1]):
        shift += e
        acc = acc * n + (ck << shift)
    return _sign(acc)


def _rational_sign(c: _Coeffs, r: Fraction) -> int:
    """Exact sign of c at the rational r: by shifts when r is dyadic, else scaled."""
    q = r.denominator
    if q & (q - 1) == 0:
        return _sign_at(c, r.numerator, q.bit_length() - 1)
    return _sign_at(_Coeffs(c, q), r.numerator)


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _var_at_infinity(chain: list[list[int]], positive: bool) -> int:
    # at -inf, f has the sign of its leading coefficient times (-1)^deg f
    return _variations([_sign(f[-1]) * (1 if positive or len(f) % 2 else -1) for f in chain])


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
    return SturmChain(tuple(poly(c) for c in _int_prs(sf, _int_derivative(sf))))


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------


def _ladder(c: _Coeffs, separators: list[float], dyadic: bool = True) -> list[Fraction]:
    """Exact ladder for c, positive leading coefficient and c(0) > 0.

    The rungs are -1/2^40, the n-1 float separators (decreasing, rounded
    to the grid 2^-32, or with dyadic=False to denominators at most
    2^32), and -(1 + max|c_k|), below every root when the leading
    coefficient is 1.  Raises BracketingError unless sign(c(rung j)) is
    exactly (-1)^j and the rungs decrease.  A dyadic ladder is checked
    on integers alone: each rung is signed at its point (numerator,
    exponent) by _sign_at, and the rungs decrease as numerators on the
    grid 2^-40; only the returned rungs are Fractions.
    """
    top = -(1 + max(abs(v) for v in c))
    if dyadic:
        points = [(-1, 40), *((round(t * 2**32), 32) for t in separators), (top, 0)]
        rungs = [Fraction(n, 1 << e) for n, e in points]
        signs = (_sign_at(c, n, e) for n, e in points)
        order = [n << (40 - e) for n, e in points]
    else:
        rungs = [Fraction(t).limit_denominator(2**32) for t in separators]
        rungs = [Fraction(-1, 2**40), *rungs, Fraction(top)]
        signs = (_rational_sign(c, r) for r in rungs)
        order = rungs
    for j, s in enumerate(signs):
        if s != (-1) ** j:
            raise BracketingError(j, float(rungs[j]), (-1.0) ** j, "exact sign verification failed")
    if any(a <= b for a, b in zip(order, order[1:])):
        raise BracketingError(0, 0.0, 0.0, "ladder lost strict monotonicity")
    return rungs


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
    ts = [math.cos(k * math.pi / (n + 0.5)) for k in range(1, n)]
    return [(t - 1) / (t + 1) for t in ts]


def _legendre_roots(n: int) -> list[float]:
    """Float roots of h_A: -tan^2(theta/2) = (t-1)/(t+1) at the zeros t = cos(theta) of P_n.

    Newton in theta from Tricomi's phi + cot(phi) / 8 nu^2, phi = (k - 1/4) pi / nu,
    nu = n + 1/2, with d/dtheta P_n(cos theta) = n (t P_n - P_(n-1)) / sin theta.
    """
    out = []
    nu = n + 0.5
    for k in range(1, n + 1):
        phi = (k - 0.25) * math.pi / nu
        theta = phi + 1 / (8 * nu * nu * math.tan(phi))
        for _ in range(20):
            t = math.cos(theta)
            p0, p1 = 1.0, t
            for m in range(1, n):
                p0, p1 = p1, ((2 * m + 1) * t * p1 - m * p0) / (m + 1)
            slope = n * (t * p1 - p0)
            step = p1 * math.sin(theta) / slope if slope else 0.0
            theta -= step
            if abs(step) < 1e-13:
                break
        out.append(-math.tan(theta / 2) ** 2)
    return out


def _c_roots(n: int) -> list[float]:
    """The roots of h_C: -tan^2((2k+1) pi / 4n), k = 0..n-1."""
    return [-math.tan((2 * k + 1) * math.pi / (4 * n)) ** 2 for k in range(n)]


def _b_newton(n: int, u: complex) -> complex | None:
    """Complex Newton on g(theta) = h_B(-tan^2 theta) cos^(2n+1) theta, in u = pi/2 - theta.

    With x = -tan^2 theta, the even slice of (1+x)^(2n+1) becomes
    cos((2n+1) theta) / cos^(2n+1) theta and 1 + x becomes
    cos(2 theta) / cos^2 theta, so (-1)^n g = sin(k u) - 2n sin u cos^2 u
    cos^(n-1)(2u), k = 2n+1.  In u, the largest roots |x| = cot^2 u keep
    their relative precision.  None when the iteration does not settle.
    """
    k = 2 * n + 1
    try:
        for _ in range(50):
            s, co, c2 = cmath.sin(u), cmath.cos(u), cmath.cos(2 * u)
            w = 2 * n * c2 ** (n - 2)
            f = cmath.sin(k * u) - w * s * co * co * c2
            df = k * cmath.cos(k * u) - w * co * (
                (co * co - 2 * s * s) * c2 - 2 * (n - 1) * s * co * cmath.sin(2 * u)
            )
            step = f / df
            u -= step
            if abs(step) < 1e-13:
                return u
    except (ZeroDivisionError, OverflowError):
        pass
    return None


def _b_proposal(n: int) -> tuple[list[float], list[complex]]:
    """Sign-change angles of g and complex-root guesses for h_B of degree n.

    g = cos(k theta) + tail, k = 2n+1, is first read at the extrema j pi / k
    of cos(k theta).  A half-period with |tail| < 1/4 at both ends holds
    one sign change, near its middle, and its ends stand for it.  Every
    other one is read at 64 points: near pi/2, where |tail| peaks near
    0.6 sqrt(n) and the complex roots sit, and near theta = 1/sqrt(2n).
    Samples where |g| is below float noise are dropped (near pi/2 the
    two terms cancel).  A sign change gives the midpoint theta of its two
    samples, near a real root -tan^2 theta.  Each local minimum of |g|
    without a sign change seeds complex Newton at a root of the parabola
    through the three samples around it; every distinct non-real hit x,
    taken with Im x > 0, is one guess for a complex-conjugate pair.
    """
    k = 2 * n + 1
    h = math.pi / (64 * k)
    noise = 2.0**-46 * k
    cos = math.cos

    def sample(i: int) -> tuple[float, float, float]:
        t = i * h
        co = cos(t)
        cc = co * co
        tail = 2 * n * (1 - cc) * co * (2 * cc - 1) ** (n - 1)
        return t, cos(k * t) + tail, tail

    quiet = [abs(sample(64 * j)[2]) < 0.25 for j in range(n + 1)] + [False]
    # each half-period from its start: a quiet one alone, the others at 64 points
    spans = (
        range(64 * j, min(64 * j + 64, 32 * k)) if not quiet[j] or not quiet[j + 1] else (64 * j,)
        for j in range(n + 1)
    )
    roots: list[float] = []
    dips = []
    # the last two samples kept, streamed so that no sample list is stored
    t0 = g0 = t1 = g1 = None
    for t, g, tail in map(sample, chain.from_iterable(spans)):
        if abs(g) <= noise * (1 + abs(tail)):
            continue
        if g1 is not None:
            if (g1 > 0) != (g > 0):
                roots.append((t1 + t) / 2)
            elif g0 is not None and (g0 > 0) == (g1 > 0) and abs(g0) > abs(g1) <= abs(g):
                dips.append((t0, g0, t1, g1, t, g))
        t0, g0, t1, g1 = t1, g1, t, g
    guesses: list[complex] = []
    for t0, g0, t1, g1, t2, g2 in dips:
        # g ~ g1 + b (t - t1) + a (t - t1)^2 through the three samples
        a = ((g2 - g1) / (t2 - t1) - (g1 - g0) / (t1 - t0)) / (t2 - t0)
        b = (g1 - g0) / (t1 - t0) + a * (t1 - t0)
        u = _b_newton(n, math.pi / 2 - t1 - (-b + cmath.sqrt(b * b - 4 * a * g1)) / (2 * a))
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


def _exact_newton(c: list[int], x: float) -> float:
    """x - c(x) / c'(x), computed exactly and rounded once; x when c'(x) = 0.

    With x = num / den, P(y) = den^d c(y / den) has integer coefficients,
    and the step is (num P'(num) - P(num)) / (den P'(num)).
    """
    num, den = x.as_integer_ratio()
    v = w = 0
    for a in reversed(_Coeffs(c, den)):
        w = w * num + v
        v = v * num + a
    return (num * w - v) / (w * den) if w else x


def _b_real_roots(c: list[int], thetas: list[float]) -> list[float]:
    """-cot^2 u after real Newton in u = pi/2 - theta from each sign-change angle.

    Near u = 0 the two terms of g cancel, so the guess for the largest
    root (about -10^6 at rank 100, good to about 10^-12 relative) takes
    one more Newton step, on c itself.
    """
    n = len(c) - 1
    out = []
    for t in thetas:
        u = _b_newton(n, complex(math.pi / 2 - t))
        u = u.real if u is not None and 0 < u.real < math.pi / 2 else math.pi / 2 - t
        cot = math.cos(u) / math.sin(u)
        out.append(-cot * cot)
    if out:
        out[-1] = _exact_newton(c, out[-1])
    return out


def _b_certificate(c: list[int]) -> tuple[list[float], list[_Disc], _Guesses]:
    """Separators and real-root guesses for h_B, and exact discs for its complex pairs.

    The separators are -tan^2 of the midpoints between consecutive
    sign-change angles.  Each disc lies in the upper half-plane and
    holds exactly one root, so m pairwise disjoint discs prove 2m
    non-real roots, the conjugates included.  Any guess without a
    proven disc, or two discs that meet, leaves no discs at all, so the
    count cannot close.
    """
    n = len(c) - 1
    thetas, guesses = _b_proposal(n)
    separators = [-math.tan((a + b) / 2) ** 2 for a, b in zip(thetas, thetas[1:])]
    real = partial(_b_real_roots, c, thetas)
    discs = []
    for x in guesses:
        # the separators stand in for the real roots they separate
        others = [abs(x - y) for y in separators + guesses if y != x]
        d = _root_disc(c, x, min([x.imag] + others))
        if d is None:
            return separators, [], real
        discs.append(d)
    return separators, discs if _disjoint(discs) else [], real


def _ladder_only(separators: Callable[[int], list[float]], roots: Callable[[int], list[float]]):
    return lambda c: (separators(len(c) - 1), [], lambda: roots(len(c) - 1))


# per family: float separators for the real roots, exact discs for the
# others, and float root guesses; B1 = A1 and B2 = C2 keep the plain ladders
_CERTIFICATES = {
    "A": _ladder_only(_legendre_separators, _legendre_roots),
    "C": _ladder_only(_tan_separators, _c_roots),
    "D": _ladder_only(_tan_separators, lambda n: _d_roots(n)),
    "B": _b_certificate,
}


@lru_cache(maxsize=256)
def _closed_form(tag: str, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in _CLOSED_FORMS[tag](n).coeffs)


def _certificate(c: _Coeffs) -> tuple[list[Fraction] | None, _Guesses]:
    """(ladder or None, float root guesses) of c; a ladder for a closed form whose count closes.

    The r + 1 rungs prove r distinct real roots and the m discs 2m
    non-real ones; when r + 2m is the degree, each ladder window holds
    exactly one root, no real root lies outside the ladder, and c is
    squarefree.
    """
    n = len(c) - 1
    for tag, certificate in _CERTIFICATES.items():
        if n >= MIN_RANK[tag] and _closed_form(tag, n) == tuple(c):
            separators, discs, guesses = certificate(c)
            try:
                closes = len(separators) + 1 + 2 * len(discs) == n
                return (_ladder(c, separators) if closes else None), guesses
            except BracketingError:
                return None, guesses
    return None, list


# ---------------------------------------------------------------------------
# root counters: N(x) = number of distinct roots greater than x
# ---------------------------------------------------------------------------


class _SturmCounter:
    """N(x) = V(x) - V(+inf) on a signed remainder chain of squarefree c."""

    def __init__(self, chain: list[_Coeffs]):
        self.chain = chain
        self._v_top = _var_at_infinity(chain, True)
        self.total = _var_at_infinity(chain, False) - self._v_top

    def above(self, n: int, e: int, s: int) -> int:
        """Roots greater than n / 2^e; s must be the exact sign there of chain[0], c itself."""
        return _variations([s, *(_sign_at(f, n, e) for f in self.chain[1:])]) - self._v_top


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


def _counter(p: Polynomial) -> tuple[_Coeffs, _SturmCounter | _LadderCounter, _Guesses]:
    """(c, root counter of c, float root guesses), c squarefree with p's roots.

    c is p's primitive coefficients when their ladder closes, which proves
    them squarefree, and else p's squarefree part, on its own ladder or Sturm.
    """
    c = _Coeffs(primitive_integer_coeffs(p))
    rungs, guesses = _certificate(c)
    if rungs is None and (sf := _squarefree_int(p)) != c:
        c = _Coeffs(sf)
        rungs, guesses = _certificate(c)
    if rungs is not None:
        return c, _LadderCounter(rungs), guesses
    return c, _SturmCounter([_Coeffs(f) for f in _int_prs(c, _int_derivative(c))]), guesses


def _on_grid(c: list[int], iv: Interval) -> tuple[_Coeffs, int, int, int, int]:
    """(c on the grid 1 / q, iv's ends as grid points, c's exact signs there).

    q is the common denominator of iv's ends, so they are the integers
    lo = iv.lo q and hi = iv.hi q, and c(iv.lo) has the sign of the
    grid polynomial q^d c(y / q) at lo.
    """
    q = math.lcm(iv.lo.denominator, iv.hi.denominator)
    g = _Coeffs(c, q)
    lo, hi = int(iv.lo * q), int(iv.hi * q)
    return g, lo, hi, _sign_at(g, lo), _sign_at(g, hi)


def count_real_roots(p: Polynomial, interval: Interval | None = None) -> int:
    """Number of distinct real roots of p, on the whole line or in an interval.

    On an interval [a, b] the roots in (a, b] are N(a) - N(b), with N
    the number of roots above a point, even when a or b is a root; an
    exact check of p(a) = 0 adds the left endpoint.  Both are counted
    as integers on the grid of the interval (_on_grid).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return 0
    c, counter, _ = _counter(p)
    if interval is None:
        return counter.total
    c, lo, hi, s_lo, s_hi = _on_grid(c, interval)
    if isinstance(counter, _LadderCounter):
        counter = _LadderCounter([r * c.q for r in counter.rungs])
    else:
        counter = _SturmCounter([_Coeffs(f, c.q) for f in counter.chain])
    return counter.above(lo, 0, s_lo) - counter.above(hi, 0, s_hi) + (s_lo == 0)


def is_real_rooted(p: Polynomial) -> RootReport:
    """Decide whether every root of p is real, counting multiplicities.

    Each squarefree factor is counted by its certificate (a ladder, plus
    Pellet discs for type B) or, failing that, its Sturm chain; p is
    real-rooted when the multiplicity-weighted count reaches the degree.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return RootReport(0, 0, 0, True)
    distinct = 0
    weighted = 0
    for f, m in squarefree_decomposition(p):
        k = _counter(f)[1].total
        distinct += k
        weighted += m * k
    return RootReport(p.degree, distinct, weighted, weighted == p.degree)


# ---------------------------------------------------------------------------
# isolation and refinement on the dyadic grid: a point is n / 2^e, and an
# interval (a, b, e) is [a / 2^e, b / 2^e], both ends on one grid
# ---------------------------------------------------------------------------


def _nonroot_split(c: _Coeffs, a: int, b: int, e: int) -> tuple[int, int, int]:
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
    c: _Coeffs, a: int, b: int, e: int, s_a: int, wn: int, wd: int
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


def _pick_cells(
    c: _Coeffs, a: int, b: int, wn: int, wd: int,
    above: Callable[[int, int, int], int], guesses: list[float],
    memo: dict[tuple[int, int], tuple[int, int]] | None = None,
) -> list[tuple[int, int, int]] | None:
    """The cells that bisecting (a, b) to width wn / wd ends in, read off root guesses.

    above(n, e, s) counts roots of c above n / 2^e, s the sign there;
    memo may hold (s, above) at a and b, keys (0, 0) and (0, 1).  Each
    guess x is a root of c in grid units, as a, b and wn / wd are.
    Depth t is the first whose grid cells are no wider than wn / wd.
    Each guess takes its depth-t cell i (i -/+ 1 if i holds no root)
    and descends along x while its cell holds two or more roots; the
    cell must end with one root and exact nonzero end signs.  If the
    cells are distinct and hold every root, no root is a grid point at
    its cell's depth or above, nor a deeper midpoint, whose cell would
    hold a second root; so bisection never nudges and ends in these
    cells.  None otherwise.
    """
    t = 0
    while (b - a) * wd > wn << t:
        t += 1
    span = b - a
    memo = {} if memo is None else memo

    def at(d: int, i: int) -> tuple[int, int]:
        """Sign of c and root count above grid point i of depth d."""
        while d and not i & 1:
            d, i = d - 1, i >> 1
        if (d, i) not in memo:
            m = (a << d) + i * span
            s = _sign_at(c, m, d)
            memo[d, i] = s, above(m, d, s)
        return memo[d, i]

    def held(d: int, i: int) -> int:
        return at(d, i)[1] - at(d, i + 1)[1] if 0 <= i < 1 << d else 0

    cells = []
    for x in guesses:
        if not math.isfinite(x):
            return None
        num, den = x.as_integer_ratio()
        num, den = num - a * den, span * den  # x = a + span * num / den
        i = (num << t) // den
        i = next((j for j in (i, i - 1, i + 1) if held(t, j)), None)
        if i is None:
            return None
        d = t
        while held(d, i) > 1:
            d += 1
            i = min(max((num << d) // den, 2 * i), 2 * i + 1)
        if held(d, i) != 1 or not at(d, i)[0] or not at(d, i + 1)[0]:
            return None
        cells.append((d, i))
    if len(set(cells)) != len(cells) or len(cells) != held(0, 0):
        return None
    return [((a << d) + i * span, (a << d) + (i + 1) * span, d) for d, i in cells]


def _bisect_cells(
    c: _Coeffs, a: int, b: int, wn: int, wd: int, counter: _SturmCounter | _LadderCounter
) -> list[tuple[int, int, int]]:
    """Bisection of (a, b) on counter's root counts for squarefree c, then sign refinement."""
    s_a = _sign_at(c, a)
    found = []
    # (a, sign of c at a, N(a), b, N(b), e); no endpoint is a root
    stack = [(a, s_a, counter.above(a, 0, s_a), b, counter.above(b, 0, _sign_at(c, b)), 0)]
    while stack:
        a, sa, na, b, nb, e = stack.pop()
        roots_here = na - nb
        if roots_here == 0:
            continue
        if roots_here == 1:
            # c is squarefree, so its one root here is a sign change
            found.append(_bisect_sign(c, a, b, e, sa, wn, wd))
            continue
        m, k, sm = _nonroot_split(c, a, b, e)
        nm = counter.above(m, e + k, sm)
        stack.append((a << k, sa, na, m, nm, e + k))
        stack.append((m, sm, nm, b << k, nb, e + k))
    return found


def isolate_real_roots(
    p: Polynomial, width: Fraction = Fraction(1, 64)
) -> tuple[Interval, ...]:
    """Disjoint rational intervals, each holding exactly one distinct real root.

    The cells of bisection on root counts (ladder or Sturm) from the
    bound 1 + max|a_k| / |a_d|, midpoints nudged off the roots, then on
    signs alone down to at most the width.  A closed form's root guesses
    pick them directly (_pick_cells) unless a check fails.  Input that
    no ladder proves squarefree is reduced to its squarefree part.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if p.degree < 1:
        return ()
    c, counter, guesses = _counter(p)
    wn, wd = width.numerator, width.denominator
    bound = 1 + max(abs(v) for v in c[:-1]) // abs(c[-1]) + 1
    cells = _pick_cells(c, -bound, bound, wn, wd, counter.above, guesses())
    if cells is None:
        cells = _bisect_cells(c, -bound, bound, wn, wd, counter)
    found = [Interval(Fraction(a, 1 << e), Fraction(b, 1 << e)) for a, b, e in cells]
    return tuple(sorted(found, key=lambda iv: iv.lo))


# ---------------------------------------------------------------------------
# trigonometric bracketing for type D
# ---------------------------------------------------------------------------


def trig_values(n: int, phi: float) -> tuple[float, float]:
    """Window function and its perturbation term at angle phi.

    Under x = -tan^2(phi/2) the degree-n type D coordinator polynomial
    is a positive multiple of value = cos(n phi) + envelope, with
    envelope = (n/2) sin^2(phi) cos^(n-2)(phi), below 1 in magnitude for
    n >= 3, so the signs at the nodes j pi / n alternate.
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    s = math.sin(phi)
    c = math.cos(phi)
    envelope = 0.5 * n * s * s * c ** (n - 2)
    return math.cos(n * phi) + envelope, envelope


def _d_root(n: int, lo: float, hi: float) -> float:
    """-tan^2(phi/2) after Newton on the window function from the middle of (lo, hi)."""
    phi = (lo + hi) / 2
    for _ in range(20):
        s, co = math.sin(phi), math.cos(phi)
        slope = n * (s * co ** (n - 3) * (co * co - (n - 2) * s * s / 2) - math.sin(n * phi))
        step = trig_values(n, phi)[0] / slope if slope else 0.0
        phi -= step
        if abs(step) < 1e-13:
            break
    return -math.tan(phi / 2) ** 2


def _d_roots(n: int) -> list[float]:
    return [_d_root(n, j * math.pi / n, (j + 1) * math.pi / n) for j in range(n)]


@lru_cache(maxsize=64)
def _d_ladder(n: int) -> tuple[Fraction, ...]:
    """The certified ladder of the degree-n type D closed form, n >= 3, as printed."""
    return tuple(_ladder(_Coeffs(_closed_form("D", n)), _tan_separators(n), dyadic=False))


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
            if (value if j % 2 == 0 else -value) < margin:
                raise BracketingError(j, value, margin, "float interlacing margin violated")
    ladder = _d_ladder(n)
    return tuple(
        TrigBracket(j, j * math.pi / n, (j + 1) * math.pi / n, node_values[j],
                    node_values[j + 1], Interval(ladder[j + 1], ladder[j]))
        for j in range(n)
    )


def _one_root_window(b: TrigBracket, n: int) -> bool:
    """b is window j of _d_ladder(n), so it holds one simple root of the type D closed form."""
    try:
        ladder = _d_ladder(n)
    except BracketingError:
        return False
    return 0 <= b.j < n and (b.x_interval.lo, b.x_interval.hi) == (ladder[b.j + 1], ladder[b.j])


def refine_bracket(b: TrigBracket | Interval, p: Polynomial, width: Fraction) -> Interval:
    """Shrink a sign-change bracket to the requested width by bisection.

    The exact signs of p at the ends must differ; a bracket already
    narrow enough is returned unchanged.  On the grid of its ends
    (_on_grid), it is bisected as an integer bracket of q^d p(y / q),
    with the midpoints of the rationals.  A bracket of d_type_brackets(n)
    for its own p holds one root, and _pick_cells reads the final cell
    off Newton on the window function.
    """
    iv = b.x_interval if isinstance(b, TrigBracket) else b
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    n = p.degree
    cf = _closed_form("D", n) if isinstance(b, TrigBracket) and n >= 3 else None
    c = cf if p.coeffs == cf else primitive_integer_coeffs(p)
    scaled, lo, hi, s_lo, s_hi = _on_grid(c, iv)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError("endpoint signs must be nonzero and opposite")
    q = scaled.q
    wn, wd = width.numerator * q, width.denominator
    cells = None
    if c == cf and _one_root_window(b, n):
        # one root: it lies above a point exactly when c there has the sign at lo
        guess = [_d_root(n, b.phi_lo, b.phi_hi) * q]
        ends = {(0, 0): (s_lo, 1), (0, 1): (s_hi, 0)}
        cells = _pick_cells(scaled, lo, hi, wn, wd, lambda m, e, s: s == s_lo, guess, ends)
    x, y, e = cells[0] if cells else _bisect_sign(scaled, lo, hi, 0, s_lo, wn, wd)
    return Interval(Fraction(x, q << e), Fraction(y, q << e))
