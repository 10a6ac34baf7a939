"""Coordinator polynomials of root lattices, built from exact closed forms.

The coordinator polynomial of a lattice graded by word length is the
numerator h(x) of its growth series h(x) / (1-x)^d, where d is the rank.
Types A, B, C and D have closed forms in terms of binomial coefficients;
exceptional types are recovered from a census counted on Weyl-group
orbits in the latticeenum module instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactpoly import ONE, Polynomial, binom, double_factorial, eval_at, legendre, poly

__all__ = [
    "LatticeType",
    "CoordinatorPolynomial",
    "UnsupportedTypeError",
    "coordinator",
    "coordinator_product",
    "type_b_coefficient_ratios",
    "legendre_identity_check",
]

CLOSED_FORM_TAGS = ("A", "B", "C", "D")
EXCEPTIONAL_RANKS = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 2}


class UnsupportedTypeError(ValueError):
    """Raised when a closed form is requested for a type that has none."""


@dataclass(frozen=True)
class LatticeType:
    """A lattice family tag plus its rank n.

    Classical tags A, B, C take n >= 1 and D takes n >= 2.  The
    exceptional tags carry a fixed rank, so n may be omitted for them.
    """

    tag: str
    n: int = 0

    def __post_init__(self) -> None:
        if self.tag in EXCEPTIONAL_RANKS:
            fixed = EXCEPTIONAL_RANKS[self.tag]
            if self.n == 0:
                object.__setattr__(self, "n", fixed)
            elif self.n != fixed:
                raise ValueError(f"{self.tag} has fixed rank {fixed}, got n={self.n}")
        elif self.tag in MIN_RANK:
            if self.n < MIN_RANK[self.tag]:
                raise ValueError(
                    f"type {self.tag} needs n >= {MIN_RANK[self.tag]}, got {self.n}"
                )
        else:
            raise ValueError(f"unknown lattice type tag {self.tag!r}")

    @property
    def rank(self) -> int:
        return self.n

    def __str__(self) -> str:
        return self.tag if self.tag in EXCEPTIONAL_RANKS else f"{self.tag}{self.n}"


@dataclass(frozen=True)
class CoordinatorPolynomial:
    """A coordinator polynomial tagged with its lattice type(s) and rank.

    For products of lattices, types holds one entry per factor and rank
    is the sum of the factor ranks.
    """

    types: tuple[LatticeType, ...]
    rank: int
    poly: Polynomial

    def __post_init__(self) -> None:
        if self.poly.coeff(0) != 1:
            raise ValueError("coordinator polynomial must have constant term 1")
        if self.poly.degree > self.rank:
            raise ValueError("degree cannot exceed the rank")
        if any(c <= 0 for c in self.poly.coeffs):
            raise ValueError("coordinator coefficients must be positive")

    @property
    def ltype(self) -> LatticeType | tuple[LatticeType, ...]:
        return self.types[0] if len(self.types) == 1 else self.types

    def coefficients(self) -> tuple[Fraction, ...]:
        return self.poly.coeffs


def _h_a(n: int) -> Polynomial:
    return poly(binom(n, k) ** 2 for k in range(n + 1))


def _h_c(n: int) -> Polynomial:
    return poly(binom(2 * n, 2 * k) for k in range(n + 1))


def _h_b(n: int) -> Polynomial:
    # even-index slice of (1+x)^{2n+1}, corrected by 2n * x * (1+x)^{n-1}
    cs = [binom(2 * n + 1, 2 * k) for k in range(n + 1)]
    for k in range(n):
        cs[k + 1] -= 2 * n * binom(n - 1, k)
    return poly(cs)


def _h_d(n: int) -> Polynomial:
    # even-power binomial expansion; the half-integer powers cancel exactly
    cs = [binom(2 * n, 2 * k) for k in range(n + 1)]
    for k in range(n - 1):
        cs[k + 1] -= 2 * n * binom(n - 2, k)
    return poly(cs)


_CLOSED_FORMS = {"A": _h_a, "B": _h_b, "C": _h_c, "D": _h_d}


def coordinator(T: LatticeType) -> CoordinatorPolynomial:
    """Closed-form coordinator polynomial for types A, B, C and D.

    Exceptional types have no closed form here; recover them from a
    length census via latticeenum.recover_coordinator.
    """
    if T.tag not in _CLOSED_FORMS:
        raise UnsupportedTypeError(
            f"no closed form for {T}; use enumeration recovery instead"
        )
    return CoordinatorPolynomial((T,), T.rank, _CLOSED_FORMS[T.tag](T.n))


def coordinator_product(types: Sequence[LatticeType]) -> CoordinatorPolynomial:
    """Coordinator polynomial of a product lattice: product of the factors."""
    if not types:
        raise ValueError("product needs at least one lattice type")
    prod = ONE
    for T in types:
        prod = prod * coordinator(T).poly
    return CoordinatorPolynomial(tuple(types), sum(T.rank for T in types), prod)


def type_b_coefficient_ratios(n: int) -> tuple[Fraction, ...]:
    """Type B coordinator coefficients divided by binom(n, k).

    Entry k is (2n+1)!! / ((2k-1)!! (2n-2k+1)!!) - 2k, a rational number
    in general.  The identity binom(n, k) * ratio_k = coefficient k of
    the type B coordinator polynomial is asserted internally; a failure
    would mean the two formulas drifted apart.
    """
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    top = double_factorial(2 * n + 1)
    ratios = tuple(
        Fraction(top, double_factorial(2 * k - 1) * double_factorial(2 * n - 2 * k + 1))
        - 2 * k
        for k in range(n + 1)
    )
    h_b = coordinator(LatticeType("B", n)).poly
    for k, r in enumerate(ratios):
        if binom(n, k) * r != h_b.coeff(k):
            raise RuntimeError(
                f"ratio formula disagrees with type B coefficients at n={n}, k={k}"
            )
    return ratios


def legendre_identity_check(n: int) -> bool:
    """Check h_A(x) = (1-x)^n P_n((1+x)/(1-x)) exactly at n + 1 points.

    Both sides are polynomials of degree at most n, since the right side
    is sum_k c_k (1+x)^k (1-x)^(n-k) for P_n(t) = sum c_k t^k.  So they
    are equal exactly when they agree at x = -1, ..., -(n+1).
    """
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    p_n, h_a = legendre(n), coordinator(LatticeType("A", n)).poly
    return all(
        (1 - x) ** n * eval_at(p_n, Fraction(1 + x, 1 - x)) == eval_at(h_a, x)
        for x in range(-1, -n - 2, -1)
    )
