"""Exact real-root counting, isolation, and trigonometric root bracketing.

Root counts come from Sturm chains evaluated with integer arithmetic:
the chain is built from the squarefree part by a primitive
pseudo-remainder sequence, which keeps every element an exact positive
rational multiple of the textbook chain element, so sign variations are
unchanged.  Isolation is plain bisection on variation counts.

For type D coordinator polynomials there is a second, independent
root-localization device: substituting x = -tan^2(phi/2) turns the
polynomial into cos(n phi) plus a small perturbation whose sign at the
nodes j pi / n alternates, so each window (j pi / n, (j+1) pi / n)
brackets exactly one root.  The float screen only picks candidate
windows; every reported x-interval is certified by exact rational sign
evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coordinator import LatticeType, coordinator
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
    isolating_intervals: tuple[Interval, ...] = ()

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
# integer Sturm kernel
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


def _sign_at(c: list[int], num: int, den: int) -> int:
    """Sign of sum c_k num^k den^(d-k); den must be positive."""
    d = len(c) - 1
    acc = c[d]
    tp = 1
    for k in range(d - 1, -1, -1):
        tp *= den
        acc = acc * num + c[k] * tp
    return _sign(acc)


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


def _var_at(chain: list[list[int]], r: Fraction) -> int:
    return _variations([_sign_at(c, r.numerator, r.denominator) for c in chain])


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


def count_real_roots(p: Polynomial, interval: Interval | None = None) -> int:
    """Number of distinct real roots of p, on the whole line or in an interval.

    On an interval [a, b] the chain counts the roots in (a, b] as
    V(a) - V(b), zeros of the chain dropped, even when a or b is a root;
    an exact check of p(a) = 0 adds the left endpoint.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return 0
    sf = _squarefree_int(p)
    chain = _signed_chain(sf)
    if interval is None:
        return _var_at_infinity(chain, False) - _var_at_infinity(chain, True)
    lo, hi = interval.lo, interval.hi
    at_lo = _sign_at(sf, lo.numerator, lo.denominator) == 0
    return _var_at(chain, lo) - _var_at(chain, hi) + at_lo


def is_real_rooted(p: Polynomial, isolate: bool = False) -> RootReport:
    """Decide whether every root of p is real, counting multiplicities.

    The distinct count comes from Sturm chains of the squarefree
    factors; the multiplicity-weighted count uses the factor
    multiplicities, and p is real-rooted exactly when that weighted
    count reaches the degree.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return RootReport(0, 0, 0, True, ())
    distinct = 0
    weighted = 0
    for f, m in squarefree_decomposition(p):
        c = list(primitive_integer_coeffs(f))
        chain = _signed_chain(c)
        k = _var_at_infinity(chain, False) - _var_at_infinity(chain, True)
        distinct += k
        weighted += m * k
    intervals = isolate_real_roots(p) if isolate else ()
    return RootReport(p.degree, distinct, weighted, weighted == p.degree, intervals)


def _nonroot_split(c: list[int], lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) where c does not vanish."""
    mid = (lo + hi) / 2
    if _sign_at(c, mid.numerator, mid.denominator) != 0:
        return mid
    gap = hi - lo
    k = 3
    while True:
        for cand in (mid - gap / 2**k, mid + gap / 2**k):
            if _sign_at(c, cand.numerator, cand.denominator) != 0:
                return cand
        k += 1


def isolate_real_roots(
    p: Polynomial, width: Fraction = Fraction(1, 64)
) -> tuple[Interval, ...]:
    """Disjoint rational intervals, each holding exactly one distinct real root.

    Bisection on Sturm variation counts, starting from the Cauchy-style
    bound 1 + max|a_k| / |a_d|; intervals are shrunk to at most the
    requested width.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return ()
    sf = _squarefree_int(p)
    chain = _signed_chain(sf)
    bound = 1 + max(abs(v) for v in sf[:-1]) // abs(sf[-1]) + 1
    lo, hi = Fraction(-bound), Fraction(bound)
    found: list[Interval] = []
    stack = [(lo, _var_at(chain, lo), hi, _var_at(chain, hi))]
    while stack:
        a, va, b, vb = stack.pop()
        roots_here = va - vb
        if roots_here == 0:
            continue
        if roots_here == 1 and b - a <= width:
            found.append(Interval(a, b))
            continue
        m = _nonroot_split(sf, a, b)
        vm = _var_at(chain, m)
        stack.append((a, va, m, vm))
        stack.append((m, vm, b, vb))
    found.sort(key=lambda iv: iv.lo)
    return tuple(found)


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


# ranks 3 and 4 sit below the default screen: the true node margins are
# 7/16 and exactly 1/2, so the acceptance threshold 0.5 is relaxed there
_MARGIN_FLOOR = {3: 0.43, 4: 0.49}

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
        if _sign_at(c, out[j].numerator, out[j].denominator) == want:
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
            if _sign_at(c, cand.numerator, cand.denominator) == want:
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


def d_type_brackets(n: int, margin: float = 0.5) -> tuple[TrigBracket, ...]:
    """Certified brackets, one per root, for the type D coordinator polynomial.

    Checks the alternating sign pattern of the window function at the
    nodes j pi / n with a float margin, maps the nodes to rational
    x values with denominators at most 2^32, and verifies an exact sign
    change across every window.  Returns n brackets ordered from the
    root nearest zero (j = 0) to the most negative (j = n-1).
    """
    if n < 3:
        raise ValueError(
            f"needs n >= 3, got {n}; rank 2 has a double root and no distinct brackets"
        )
    hd = coordinator(LatticeType("D", n)).poly
    c = [int(v) for v in hd.coeffs]

    gate = min(margin, _MARGIN_FLOOR.get(n, margin))
    node_values = []
    for j in range(n + 1):
        value, _ = trig_values(n, j * math.pi / n)
        node_values.append(value)
        signed = value if j % 2 == 0 else -value
        if signed < gate:
            raise BracketingError(
                j, value, gate, "float interlacing margin violated"
            )

    ladder = [Fraction(-1, 2**40)]
    for j in range(1, n):
        t = -math.tan(j * math.pi / (2 * n)) ** 2
        ladder.append(Fraction(t).limit_denominator(2**32))
    ladder.append(Fraction(-(1 + max(abs(v) for v in c))))
    ladder = _fix_ladder(c, ladder)

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


def refine_bracket(
    b: TrigBracket | Interval, p: Polynomial, width: Fraction
) -> Interval:
    """Shrink a sign-change bracket to the requested width by bisection.

    The exact signs of p at the bracket endpoints must differ.  If the
    current width already satisfies the request the input interval is
    returned unchanged.
    """
    iv = b.x_interval if isinstance(b, TrigBracket) else b
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    c = list(primitive_integer_coeffs(p))
    lo, hi = iv.lo, iv.hi
    s_lo = _sign_at(c, lo.numerator, lo.denominator)
    s_hi = _sign_at(c, hi.numerator, hi.denominator)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError("endpoint signs must be nonzero and opposite")
    while hi - lo > width:
        # split points are chosen off the roots, so signs stay decisive
        mid = _nonroot_split(c, lo, hi)
        if _sign_at(c, mid.numerator, mid.denominator) == s_lo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)
