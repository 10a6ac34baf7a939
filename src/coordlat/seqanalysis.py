"""Coefficient-sequence diagnostics.

Log-concavity, unimodality, internal zeros, and a truncated total
positivity test on the Toeplitz matrix of the sequence.  Every check
compares integers: `exactpoly._clear_denominators` scales the entries
by their least common denominator, which changes no sign and no
comparison.  A failed check carries a witness that can be re-verified
by direct computation.  A passing positivity test up to order k is
certified by the C(n + k, k) order-k minors on the first k columns,
which are Schur functions of the sequence and decide every smaller
order too (see `pf_minor_check`); a failure reports the first negative
one at the lowest failing order.
When the caller has proven that the polynomial sum a_k x^k has only
real roots, the pass follows from that proof and no minor is evaluated:
by Aissen-Schoenberg-Whitney a nonnegative sequence whose polynomial is
real-rooted is a Polya frequency sequence, all orders at once.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exactpoly import _clear_denominators

__all__ = [
    "SequenceVerdict",
    "LogConcavityWitness",
    "UnimodalityWitness",
    "InternalZeroWitness",
    "MinorWitness",
    "check_log_concave",
    "check_unimodal",
    "check_no_internal_zeros",
    "pf_minor_check",
]


@dataclass(frozen=True)
class LogConcavityWitness:
    """First index k with a_k^2 < a_{k-1} a_{k+1}, with the three values."""

    index: int
    left: Fraction
    center: Fraction
    right: Fraction


@dataclass(frozen=True)
class UnimodalityWitness:
    """A strict descent at descent_index followed by a strict ascent."""

    descent_index: int
    ascent_index: int


@dataclass(frozen=True)
class InternalZeroWitness:
    """Index of a zero entry strictly between two nonzero entries."""

    index: int


@dataclass(frozen=True)
class MinorWitness:
    """Row and column index sets of a negative Toeplitz minor."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    determinant: Fraction


@dataclass(frozen=True)
class SequenceVerdict:
    """Outcome of one sequence check; holds=False implies a witness."""

    property: str
    holds: bool
    witness: Optional[object] = None
    clamped: bool = False

    def __post_init__(self) -> None:
        if not self.holds and self.witness is None:
            raise ValueError("failing verdict needs a witness")


def check_log_concave(seq: Sequence) -> SequenceVerdict:
    """Weak log-concavity: a_k^2 >= a_{k-1} a_{k+1} at every interior index."""
    a, L = _clear_denominators(seq)
    if any(v < 0 for v in a):
        raise ValueError("log-concavity check needs nonnegative entries")
    for k in range(1, len(a) - 1):
        if a[k] * a[k] < a[k - 1] * a[k + 1]:
            w = LogConcavityWitness(k, *(Fraction(v, L) for v in a[k - 1 : k + 2]))
            return SequenceVerdict("log_concave", False, w)
    return SequenceVerdict("log_concave", True)


def check_unimodal(seq: Sequence) -> SequenceVerdict:
    """Weakly rising then weakly falling; plateaus are allowed."""
    a, _ = _clear_denominators(seq)
    descent = None
    for i in range(len(a) - 1):
        if a[i] > a[i + 1]:
            if descent is None:
                descent = i
        elif a[i] < a[i + 1] and descent is not None:
            return SequenceVerdict("unimodal", False, UnimodalityWitness(descent, i))
    return SequenceVerdict("unimodal", True)


def check_no_internal_zeros(seq: Sequence) -> SequenceVerdict:
    """No zero entry strictly between the first and last nonzero entries."""
    a, _ = _clear_denominators(seq)
    support = [i for i, v in enumerate(a) if v]
    if support and 0 in a[support[0] : support[-1]]:
        witness = InternalZeroWitness(a.index(0, support[0]))
        return SequenceVerdict("no_internal_zeros", False, witness)
    return SequenceVerdict("no_internal_zeros", True)


def _pf2_by_log_concavity(a: list[int]) -> bool:
    """True when a is log-concave with no internal zeros.

    For a nonnegative sequence this is equivalent to every order-2
    Toeplitz minor being nonnegative (Brenti, Mem. AMS 413, 1989), so
    True settles the order-2 pass in O(n).
    """
    return check_no_internal_zeros(a).holds and check_log_concave(a).holds


def _first_negative_minor(
    a: list[int], k: int
) -> Optional[tuple[tuple[int, ...], int]]:
    """First negative k x k minor det[a_{r_i - j}], j = 0..k-1, as (rows, det).

    None when every such minor is >= 0.  Leading zeros are stripped
    first, so a_0 > 0, and added back to the rows; rows run in
    lexicographic order over range(len(a) + k - 1), since every later
    row is zero.  Order 3 is unrolled by hand; a hit's last row is found
    again by value, since an equal earlier row gives the same minor.
    Other orders walk the row prefixes depth first.  A prefix of s rows
    carries its s x s minors on every s-subset of the k columns, each
    expanded along the newest row from the (s - 1)-minors; at depth
    k - 1 only the minor on all k columns is needed.  A prefix whose
    minors all vanish is pruned: by the generalised Laplace expansion
    along its rows, every k x k minor extending it is 0.
    """
    lead = next((i for i, v in enumerate(a) if v), len(a))
    padded = [0] * (k - 1) + a[lead:] + [0] * (k - 1)
    # row r holds (a_r, a_{r-1}, ..., a_{r-k+1})
    rows = [padded[r : r + k][::-1] for r in range(len(padded) - k + 1)]
    if k == 3:
        for i, (u0, u1, u2) in enumerate(rows):
            for j in range(i + 1, len(rows)):
                v0, v1, v2 = rows[j]
                c0 = u1 * v2 - u2 * v1
                c1 = u2 * v0 - u0 * v2
                c2 = u0 * v1 - u1 * v0
                for x0, x1, x2 in rows[j + 1 :]:
                    if (det := c0 * x0 + c1 * x1 + c2 * x2) < 0:
                        last = rows.index([x0, x1, x2], j + 1)
                        return (i + lead, j + lead, last + lead), det
        return None
    # plan[s][m][c] = (sign, i): column c's term in the expansion of the
    # m-th (s + 1)-subset of range(k) along row s, i indexing the subset
    # without c among the s-subsets; sign is 0 for a column outside it
    plan = []
    for s in range(k):
        at = {cols: i for i, cols in enumerate(combinations(range(k), s))}
        plan.append(
            [
                [
                    ((-1) ** (s + cols.index(c)), at[tuple(d for d in cols if d != c)])
                    if c in cols
                    else (0, 0)
                    for c in range(k)
                ]
                for cols in combinations(range(k), s + 1)
            ]
        )

    def walk(prefix: tuple[int, ...], minors: list[int]) -> Optional[tuple]:
        s = len(prefix)
        cofactors = [[w * minors[i] for w, i in terms] for terms in plan[s]]
        for r in range(prefix[-1] + 1 if prefix else 0, len(rows) - k + s + 1):
            x = rows[r]
            grown = [sum(map(operator.mul, cof, x)) for cof in cofactors]
            if s == k - 1:
                if grown[0] < 0:
                    return tuple(q + lead for q in (*prefix, r)), grown[0]
            elif any(grown) and (hit := walk((*prefix, r), grown)):
                return hit
        return None

    return walk((), [1])


def pf_minor_check(
    seq: Sequence, max_order: int = 3, real_rooted: bool = False
) -> SequenceVerdict:
    """Nonnegativity of all Toeplitz minors of the sequence up to max_order.

    The matrix entries are a_{i-j} (zero outside the sequence range).
    max_order is clamped to the sequence length n + 1, and `clamped`
    says so.  Entries are scaled to integers by their least common
    denominator L first; that multiplies every order-s minor by L^s, so
    verdicts are unaffected and a witness's determinant is divided by
    L^s again.  This is a necessary condition for the
    sequence to be a Polya frequency sequence, not the full (all-orders)
    decision.

    real_rooted=True states that the polynomial a_0 + a_1 x + ... +
    a_n x^n is proven to have only real roots, as `is_real_rooted`
    certifies; the verdict is then a pass and no minor is evaluated.
    This is the easy direction of Aissen-Schoenberg-Whitney (J. Analyse
    Math. 2, 1952).  Nonnegative coefficients make the polynomial
    positive for x > 0, so it is c (x + r_1) ... (x + r_d) with c > 0 and
    every r_i >= 0.  The Toeplitz matrix of a product is the product of
    the factors' Toeplitz matrices, and each factor's is bidiagonal with
    entries r_i and 1, so its minors are products of entries, or zero.
    By Cauchy-Binet every minor of the product, of every order, is then
    a sum of products of nonnegative minors.  Without real_rooted the
    minors decide, as follows.

    A pass is certified by C(n + k, k) minors, k = max_order.  Shifting
    the sequence shifts the rows of the Toeplitz matrix and leaves its
    set of minors unchanged, so leading zeros are stripped and a_0 > 0.
    With h_j = a_j / a_0, the skew Jacobi-Trudi identity writes the
    minor on rows r_1 < ... < r_s and columns c_1 < ... < c_s as
    a_0^s s_{lambda/mu}, where lambda = (r_s - s + 1, ..., r_2 - 1, r_1)
    and mu is built from the columns the same way (Macdonald, Symmetric
    Functions and Hall Polynomials, 2nd ed., I.5).  Littlewood-Richardson
    expands s_{lambda/mu} = sum c^lambda_{mu nu} s_nu with c >= 0 and
    nu inside lambda, so l(nu) <= s (I.9).  Each s_nu is the minor on
    columns 0..s-1 with rows r_i = nu_{s+1-i} + i - 1, divided by a_0^s,
    and it vanishes once a row passes n + s - 1.  An order-s minor on
    columns 0..s-1 with rows R equals a_0^(s-k) times the order-k minor
    on columns 0..k-1 with rows (0, ..., k-s-1) followed by R + k - s,
    whose top-left block is triangular with a_0 on its diagonal.  So the
    order-k minors on columns 0..k-1, rows R in range(n + k), decide
    every order up to k at once.  Order 2 is settled in O(n) instead:
    log-concave with no internal zeros is PF2 (Brenti, Mem. AMS 413,
    1989).

    A failure's witness is the first negative minor in (order, rows,
    cols) lexicographic order, rows and columns in range(n + max_order).
    By the expansion above, a negative order-s minor on rows R is a sum,
    with nonnegative coefficients, of order-s minors on columns 0..s-1
    and rows R' <= R componentwise, so one of those is negative too; and
    0..s-1 is the smallest column set.  So the witness lies on columns
    0..s-1 at the lowest failing order s, and it is the first negative
    minor that order's scan meets: order 2 when log-concavity fails,
    else the lowest order from 3 to k whose scan fails.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    a, L = _clear_denominators(seq)
    if not a:
        raise ValueError("empty sequence")
    if any(v < 0 for v in a):
        raise ValueError("total positivity check needs nonnegative entries")
    n = len(a) - 1
    clamped = False
    if max_order > n + 1:
        max_order = n + 1
        clamped = True
    passed = SequenceVerdict(f"pf_order_{max_order}", True, None, clamped)
    if real_rooted or max_order < 2:
        return passed

    if not _pf2_by_log_concavity(a):
        order, hit = 2, _first_negative_minor(a, 2)
    elif max_order == 2 or (hit := _first_negative_minor(a, max_order)) is None:
        return passed
    else:
        # the order-k minors fail; report the lowest order that fails
        order = max_order
        for s in range(3, max_order):
            if lower := _first_negative_minor(a, s):
                order, hit = s, lower
                break
    rows, det = hit
    witness = MinorWitness(rows, tuple(range(order)), Fraction(det, L**order))
    return SequenceVerdict(passed.property, False, witness, clamped)
