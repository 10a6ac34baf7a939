"""Exact dense polynomial arithmetic over arbitrary-precision rationals.

Coefficients are `fractions.Fraction` values stored low degree first, so
index k holds the coefficient of x^k.  The zero polynomial is the empty
tuple; any other coefficient tuple ends in a nonzero entry.  Everything
here is immutable and pure, so values are safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]

__all__ = [
    "Polynomial",
    "ZERO",
    "ONE",
    "X",
    "poly",
    "power",
    "eval_at",
    "derivative",
    "squarefree_part",
    "squarefree_decomposition",
    "series_expand",
    "legendre",
    "binom",
    "double_factorial",
]


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the range 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def double_factorial(m: int) -> int:
    """m!! = m(m-2)(m-4)...; the empty products 0!! and (-1)!! are both 1."""
    if m < -1:
        raise ValueError(f"double factorial needs m >= -1, got {m}")
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial; coeffs[k] is the coefficient of x^k."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        # schoolbook is fine at the degrees used here
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(tuple(out))

    def __pow__(self, k: int) -> "Polynomial":
        return power(self, k)

    def scale(self, s: Scalar) -> "Polynomial":
        return Polynomial(tuple(c * Fraction(s) for c in self.coeffs))

    def eval(self, r: Scalar) -> Fraction:
        return eval_at(self, r)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return " + ".join(parts)


ZERO = Polynomial(())
ONE = Polynomial((Fraction(1),))
X = Polynomial((Fraction(0), Fraction(1)))


def poly(coeffs: Iterable[Scalar]) -> Polynomial:
    """Build a Polynomial from any iterable of ints or Fractions."""
    return Polynomial(tuple(coeffs))


def power(p: Polynomial, k: int) -> Polynomial:
    """p^k by repeated squaring; p^0 is the constant 1."""
    if k < 0:
        raise ValueError(f"power needs k >= 0, got {k}")
    result = ONE
    base = p
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def eval_at(p: Polynomial, r: Scalar) -> Fraction:
    """Exact value p(r) by Horner's rule."""
    r = Fraction(r)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * r + c
    return acc


def derivative(p: Polynomial) -> Polynomial:
    """Exact formal derivative."""
    return Polynomial(tuple(k * c for k, c in enumerate(p.coeffs) if k > 0))


# ---------------------------------------------------------------------------
# integer-coefficient helpers
#
# Squarefree decomposition and gcds run over primitive integer coefficient
# lists: a common positive rational factor never changes roots, and integer
# arithmetic with content stripping keeps coefficient growth tame.
# ---------------------------------------------------------------------------


def _clear_denominators(values: Iterable) -> tuple[list[int], int]:
    """(ints, L) with values[k] == ints[k] / L, L the least common denominator.

    Takes any value Fraction takes; ints and Fractions are read without a copy.
    """
    vals = [v if type(v) in (int, Fraction) else Fraction(v) for v in values]
    L = math.lcm(*(v.denominator for v in vals))
    if L == 1:
        return [v.numerator for v in vals], 1
    return [v.numerator * (L // v.denominator) for v in vals], L


def primitive_integer_coeffs(p: Polynomial) -> tuple[int, ...]:
    """Scale p by a positive rational to primitive integer coefficients.

    The sign of the leading coefficient is preserved; zero gives ().
    """
    return tuple(_int_primitive(_clear_denominators(p.coeffs)[0]))


def _int_derivative(c: list[int]) -> list[int]:
    return [k * c[k] for k in range(1, len(c))]


def _int_primitive(c: list[int]) -> list[int]:
    g = 0
    for v in c:
        g = math.gcd(g, v)
        if g == 1:
            return c
    return [v // g for v in c] if g > 1 else c


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b, scaled to a positive multiple of rem(a, b).

    Each step takes r to |lb| r - sign(lb) lr x^s b, which is
    |lb| (r - (lr / lb) x^s b): a positive multiple of one division step.
    """
    r = list(a)
    lb = b[-1]
    ub = abs(lb)
    db = len(b) - 1
    while len(r) - 1 >= db:
        lr = r.pop() if lb > 0 else -r.pop()  # sign(lb) lr
        r = [ub * c for c in r]
        shift = len(r) - db
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= lr * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _int_prs(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b, then each negated pseudo-remainder made primitive.

    Stops at a constant or at a zero remainder, so the last entry is the
    gcd up to a constant; with b = a' it is the Sturm chain of a.
    """
    chain = [list(a), list(b)]
    while len(chain[-1]) > 1:
        r = _int_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_int_primitive([-x for x in r]))
    return chain


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials, positive leading coefficient."""
    if not b:  # the chain of (a, 0) would end at 0
        g = _int_primitive(list(a))
    else:
        g = _int_prs(_int_primitive(a), _int_primitive(b))[-1]
    return [-x for x in g] if g and g[-1] < 0 else g


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b of integer polynomials; b must divide a."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    out = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for k in range(len(out) - 1, -1, -1):
        if len(r) - 1 < len(b) - 1 + k:
            continue
        q, rem = divmod(r[-1], lb)
        if rem:
            raise ArithmeticError("division is not exact")
        out[k] = q
        for i, c in enumerate(b):
            r[k + i] -= q * c
        while r and r[-1] == 0:
            r.pop()
    if r:
        raise ArithmeticError("division is not exact")
    return out


# the largest prime below 2^30 (deterministic Miller-Rabin): a residue
# fits in one 30-bit digit of a CPython int, so each product is two
# digits and % takes the short division.  Any prime that does not
# divide the leading coefficient gives a sound certificate, and every
# closed-form coordinator polynomial has leading coefficient 1
_SQF_PRIME = 2**30 - 35


def _gf_rem(a: list[int], b: list[int], q: int) -> list[int]:
    """Remainder of a by b over GF(q); b has a nonzero leading coefficient."""
    r = list(a)
    inv = pow(b[-1], -1, q)
    db = len(b) - 1
    while len(r) - 1 >= db:
        f = r.pop() * inv % q
        shift = len(r) - db
        for i in range(db):
            r[shift + i] = (r[shift + i] - f * b[i]) % q
        while r and r[-1] == 0:
            r.pop()
    return r


def _gf_squarefree(a: list[int], q: int) -> bool:
    """gcd(a, a') = 1 over GF(q), for residues a with a nonzero leading one."""
    b = [k * a[k] % q for k in range(1, len(a))]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _gf_rem(a, b, q)
    return len(a) == 1


def _palindrome_half(a: list[int], q: int) -> list[int]:
    """g over GF(q) with a(x) = x^m g(x + 1/x), for a palindrome a of degree 2m.

    x^k + x^-k = V_k(x + 1/x), with V_0 = 2, V_1 = y and V_(k+1) =
    y V_k - V_(k-1), so g = a_m + sum_(k=1..m) a_(m+k) V_k.  Clenshaw's
    recurrence sums it: b_k = a_(m+k) + y b_(k+1) - b_(k+2) from k = m
    down to 1, and then g = a_m + y b_1 - 2 b_2.
    """
    m = len(a) // 2
    b1: list[int] = []
    b2: list[int] = []
    for k in range(m, 0, -1):
        b1, b2 = [(x - y) % q for x, y in zip([a[m + k], *b1], [*b2, 0, 0])], b1
    return [(x - 2 * y) % q for x, y in zip([a[m], *b1], [*b2, 0, 0])]


def _squarefree_mod_prime(c: list[int], q: int = _SQF_PRIME) -> bool:
    """True when a coprimality test modulo q proves c squarefree over Q.

    The test is gcd(c mod q, c' mod q) = 1.  A common factor g of c and
    c' over Q can be taken primitive in Z[x]; by Gauss's lemma it
    divides both in Z[x], and its leading coefficient divides c's, which
    q does not divide, so g mod q keeps its degree and divides both
    residues.  False means undecided: q divides the leading coefficient,
    or the residues share a factor.

    A palindrome, c_k = c_(d-k), is tested on half its degree.  Of even
    degree 2m it is c(x) = x^m G(x + 1/x), G integral with c's leading
    coefficient (_palindrome_half builds G mod q).  Over C, G = lc
    prod (y - y_i) gives c = lc prod (x^2 - y_i x + 1).  The root pair
    x, 1/x of x^2 - y x + 1 is double only at y = +-2, and two factors
    with y_i != y_j share no root, as a root x fixes y = x + 1/x.  So c
    is squarefree exactly when G is and G(2) G(-2) != 0.  The first is
    proven by the test above on G, the second by c(1) c(-1) != 0 mod q,
    as G(2) = c(1) and G(-2) = (-1)^m c(-1).  Of odd degree, c(-1) =
    -c(-1) = 0, so c = (x + 1) c1 with c1 a palindrome of even degree,
    and c is squarefree exactly when c1 is: c1(-1) = 0 would put y + 2
    in c1's G and (x + 1)^2 in c1.
    """
    if c[-1] % q == 0:
        return False
    a = [v % q for v in c]
    if c != c[::-1]:
        return _gf_squarefree(a, q)
    if len(a) % 2 == 0:
        # synthetic division by x + 1, from the top
        c1 = [a[-1]]
        for v in reversed(a[1:-1]):
            c1.append((v - c1[-1]) % q)
        a = c1[::-1]
    if sum(a) % q == 0 or (sum(a[::2]) - sum(a[1::2])) % q == 0:
        return False
    return _gf_squarefree(_palindrome_half(a, q), q)


def squarefree_decomposition(p: Polynomial) -> tuple[tuple[Polynomial, int], ...]:
    """Yun decomposition: pairwise-coprime squarefree factors with multiplicities.

    Returns ((g_1, m_1), ...) where p is a positive rational times the
    product of g_i^{m_i}, each g_i is primitive with positive leading
    coefficient, and the m_i are distinct.  Ordered by multiplicity.

    A coprimality certificate modulo one prime settles the common
    squarefree case without the integer remainder sequence; only inputs
    it cannot certify go through Yun's integer gcds.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    c = list(primitive_integer_coeffs(p))
    if c[-1] < 0:
        c = [-x for x in c]
    if len(c) == 1:
        return ()
    if _squarefree_mod_prime(c):
        return ((poly(c), 1),)
    return _yun(c)


def _yun(c: list[int]) -> tuple[tuple[Polynomial, int], ...]:
    """Yun's algorithm over integer gcds; c is primitive, positive leading."""
    g = _int_gcd(c, _int_derivative(c))
    if len(g) == 1:
        return ((poly(c), 1),)
    factors: list[tuple[Polynomial, int]] = []
    w = _int_exact_div(c, g)
    y = _int_exact_div(_int_derivative(c), g)
    m = 1
    while len(w) > 1:
        dw = _int_derivative(w)
        z = [
            (y[i] if i < len(y) else 0) - (dw[i] if i < len(dw) else 0)
            for i in range(max(len(y), len(dw)))
        ]
        while z and z[-1] == 0:
            z.pop()
        gi = _int_gcd(w, z)
        if len(gi) > 1:
            factors.append((poly(gi), m))
        w = _int_exact_div(w, gi)
        y = _int_exact_div(z, gi) if z else []
        m += 1
    return tuple(factors)


def squarefree_part(
    p: Polynomial,
) -> tuple[Polynomial, tuple[tuple[int, int], ...]]:
    """Squarefree part of p plus its multiplicity profile.

    The part is p / gcd(p, p'), primitive with positive leading
    coefficient.  The profile lists (degree sum, multiplicity) pairs for
    the squarefree factors, highest multiplicity first.
    """
    factors = squarefree_decomposition(p)
    sf = ONE
    for f, _ in factors:
        sf = sf * f
    profile = tuple(
        (f.degree, m) for f, m in sorted(factors, key=lambda fm: -fm[1])
    )
    return sf, profile


def series_expand(h: Polynomial, d: int, K: int) -> tuple[Fraction, ...]:
    """First K+1 coefficients of the power series h(x) / (1-x)^d.

    Dividing by 1 - x takes prefix sums, so the series is h's
    coefficients, padded with zeros to K + 1 terms, summed d times.
    The sums run on h scaled to integers, and each entry is divided back.
    """
    if d < 1:
        raise ValueError(f"series_expand needs d >= 1, got {d}")
    if K < 0:
        raise ValueError(f"series_expand needs K >= 0, got {K}")
    ints, L = _clear_denominators(h.coeffs)
    out = (ints + [0] * (K + 1))[: K + 1]
    for _ in range(d):
        out = list(accumulate(out))
    return tuple(Fraction(v, L) for v in out)


def legendre(n: int) -> Polynomial:
    """Legendre polynomial of degree n with exact rational coefficients.

    P_n(x) = 2^-n sum_{k <= n/2} (-1)^k C(n,k) C(2n-2k, n) x^(n-2k), with
    every P_n(1) = 1 (Szego, Orthogonal Polynomials, 4.2).
    """
    if n < 0:
        raise ValueError(f"legendre needs n >= 0, got {n}")
    cs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        cs[n - 2 * k] = Fraction((-1) ** k * binom(n, k) * binom(2 * n - 2 * k, n), 2**n)
    return poly(cs)
