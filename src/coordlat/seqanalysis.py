"""Coefficient-sequence diagnostics.

Log-concavity, unimodality, internal zeros, and a truncated total
positivity test on the Toeplitz matrix of the sequence.  Everything is
decided in exact rational/integer arithmetic; a failed check always
carries a witness that can be re-verified by direct computation.  A
passing positivity test up to order k is certified by the C(n + k, k)
order-k minors on the first k columns, which are Schur functions of the
sequence and decide every smaller order too (see `pf_minor_check`).
When the caller has proven that the polynomial sum a_k x^k has only
real roots, the pass follows from that proof and no minor is evaluated:
by Aissen-Schoenberg-Whitney a nonnegative sequence whose polynomial is
real-rooted is a Polya frequency sequence, all orders at once.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

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


def _as_fractions(seq: Sequence) -> list[Fraction]:
    return [v if type(v) is Fraction else Fraction(v) for v in seq]


def check_log_concave(seq: Sequence) -> SequenceVerdict:
    """Weak log-concavity: a_k^2 >= a_{k-1} a_{k+1} at every interior index."""
    vals = _as_fractions(seq)
    if any(v < 0 for v in vals):
        raise ValueError("log-concavity check needs nonnegative entries")
    for k in range(1, len(vals) - 1):
        if vals[k] * vals[k] < vals[k - 1] * vals[k + 1]:
            return SequenceVerdict(
                "log_concave",
                False,
                LogConcavityWitness(k, vals[k - 1], vals[k], vals[k + 1]),
            )
    return SequenceVerdict("log_concave", True)


def check_unimodal(seq: Sequence) -> SequenceVerdict:
    """Weakly rising then weakly falling; plateaus are allowed."""
    vals = _as_fractions(seq)
    descent = None
    for i in range(len(vals) - 1):
        if vals[i] > vals[i + 1]:
            if descent is None:
                descent = i
        elif vals[i] < vals[i + 1] and descent is not None:
            return SequenceVerdict(
                "unimodal", False, UnimodalityWitness(descent, i)
            )
    return SequenceVerdict("unimodal", True)


def check_no_internal_zeros(seq: Sequence) -> SequenceVerdict:
    """No zero entry strictly between the first and last nonzero entries."""
    support = [i for i, v in enumerate(seq) if v != 0]
    if len(support) >= 2:
        for i in range(support[0] + 1, support[-1]):
            if seq[i] == 0:
                return SequenceVerdict(
                    "no_internal_zeros", False, InternalZeroWitness(i)
                )
    return SequenceVerdict("no_internal_zeros", True)


def _bareiss_det(m: list[list[int]]) -> int:
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


def _pf2_by_log_concavity(a: list[int]) -> bool:
    """True when a is log-concave with no internal zeros.

    For a nonnegative sequence this is equivalent to every order-2
    Toeplitz minor being nonnegative (Brenti, Mem. AMS 413, 1989), so
    True settles the order-2 pass in O(n); False sends it to the scan,
    which then finds the first negative minor.
    """
    support = [i for i, v in enumerate(a) if v]
    if support and 0 in a[support[0] : support[-1]]:
        return False
    return all(a[k] * a[k] >= a[k - 1] * a[k + 1] for k in range(1, len(a) - 1))


def _column_solid_nonnegative(a: list[int], k: int) -> bool:
    """True when every k x k minor det[a_{r_i - j}], j = 0..k-1, is >= 0.

    Leading zeros are stripped first, so a_0 > 0; rows run over
    range(len(a) + k - 1), since every later row is zero.  Each minor is
    expanded along its last row: the k cofactors are computed once per
    choice of the first k - 1 rows, and each last row then costs k
    multiplications.  Order 3 is unrolled by hand.
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
                    if c0 * x0 + c1 * x1 + c2 * x2 < 0:
                        return False
        return True
    for head in combinations(range(len(rows)), k - 1):
        sub = [rows[r] for r in head]
        cof = [
            (-1) ** (k - 1 + j) * _bareiss_det([row[:j] + row[j + 1 :] for row in sub])
            for j in range(k)
        ]
        if any(cof):
            for x in rows[head[-1] + 1 :]:
                if sum(map(operator.mul, cof, x)) < 0:
                    return False
    return True


def pf_minor_check(
    seq: Sequence, max_order: int = 3, real_rooted: bool = False
) -> SequenceVerdict:
    """Nonnegativity of all Toeplitz minors of the sequence up to max_order.

    The matrix entries are a_{i-j} (zero outside the sequence range).
    max_order is clamped to the sequence length n + 1, and `clamped`
    says so.  Entries are scaled by their common denominator first;
    scaling multiplies every order-s minor by a positive constant, so
    verdicts are unaffected.  This is a necessary condition for the
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

    A failure is reported by a canonical scan.  Row and column indices
    run over 0..n+max_order-1 so every minor shape of the given orders
    appears; a shift of both index sets leaves a minor unchanged, so only
    representatives with a zero minimum index are evaluated.  The
    reported witness is the lexicographically first negative minor
    ordered by (order, rows, cols): any negative minor shifts down to an
    equal canonical one that precedes it.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    vals = _as_fractions(seq)
    if not vals:
        raise ValueError("empty sequence")
    if any(v < 0 for v in vals):
        raise ValueError("total positivity check needs nonnegative entries")
    n = len(vals) - 1
    clamped = False
    if max_order > n + 1:
        max_order = n + 1
        clamped = True
    passed = SequenceVerdict(f"pf_order_{max_order}", True, None, clamped)
    if real_rooted or max_order < 2:
        return passed

    lcm = 1
    for v in vals:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    a = [int(v * lcm) for v in vals]

    def fail(rows, cols, det):
        return SequenceVerdict(
            passed.property,
            False,
            MinorWitness(rows, cols, Fraction(det, lcm ** len(rows))),
            clamped,
        )

    if _pf2_by_log_concavity(a) and (
        max_order == 2 or _column_solid_nonnegative(a, max_order)
    ):
        return passed

    # A minor is negative; the canonical scan finds the first one.
    P = n + max_order

    # pad with zeros on both sides so a[i-j] becomes one list lookup
    padded = [0] * P + a + [0] * P
    entry = lambda d, _get=padded.__getitem__, _off=P: _get(d + _off)

    # Minors whose main diagonal leaves the band r - c in [0, n] contain
    # a zero block large enough to vanish, so only index sets with
    # c_i <= r_i <= c_i + n can contribute; for those, c_1 <= r_1
    # combined with the min(r_1, c_1) = 0 canonical form forces c_1 = 0.
    # The loops below generate exactly the admissible canonical sets in
    # (rows, cols) lexicographic order.  Order-1 minors are the entries
    # themselves, already known nonnegative; the order-2 scan runs only
    # when the log-concavity test cannot rule out a negative minor.
    if max_order >= 2 and not _pf2_by_log_concavity(a):
        for r1 in range(min(n, P - 2) + 1):
            A1 = entry(r1)
            for r2 in range(r1 + 1, P):
                A2 = entry(r2)
                for c2 in range(max(1, r2 - n), min(r2, P - 1) + 1):
                    det = A1 * entry(r2 - c2) - entry(r1 - c2) * A2
                    if det < 0:
                        return fail((r1, r2), (0, c2), det)
    if max_order >= 3:
        for r1 in range(min(n, P - 3) + 1):
            A1 = entry(r1)
            for r2 in range(r1 + 1, P - 1):
                A2 = entry(r2)
                for r3 in range(r2 + 1, P):
                    A3 = entry(r3)
                    for c2 in range(max(1, r2 - n), min(r2, P - 2) + 1):
                        B1 = entry(r1 - c2)
                        B2 = entry(r2 - c2)
                        B3 = entry(r3 - c2)
                        # cofactors along the third column
                        k1 = A2 * B3 - A3 * B2
                        k2 = A3 * B1 - A1 * B3
                        k3 = A1 * B2 - A2 * B1
                        if not (k1 or k2 or k3):
                            continue
                        for c3 in range(max(c2 + 1, r3 - n), min(r3, P - 1) + 1):
                            det = (
                                k1 * entry(r1 - c3)
                                + k2 * entry(r2 - c3)
                                + k3 * entry(r3 - c3)
                            )
                            if det < 0:
                                return fail((r1, r2, r3), (0, c2, c3), det)
    for order in range(4, max_order + 1):
        # orders beyond three are off the hot path; scan canonical sets
        # with an explicit band filter and a fraction-free determinant
        for R in combinations(range(P), order):
            if R[0] > n:
                continue
            col_rest = combinations(range(1, P), order - 1)
            for rest in col_rest:
                C = (0,) + rest
                if any(r < c or r > c + n for r, c in zip(R, C)):
                    continue
                det = _bareiss_det([[entry(r - c) for c in C] for r in R])
                if det < 0:
                    return fail(R, C, det)
    raise AssertionError("a negative minor escaped the canonical scan")
