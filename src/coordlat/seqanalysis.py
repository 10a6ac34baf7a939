"""Coefficient-sequence diagnostics.

Log-concavity, unimodality, internal zeros, and a truncated total
positivity test on the Toeplitz matrix of the sequence.  Everything is
decided in exact rational/integer arithmetic; a failed check always
carries a witness that can be re-verified by direct computation.
"""
from __future__ import annotations

import math
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
    return [Fraction(v) for v in seq]


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
    vals = _as_fractions(seq)
    support = [i for i, v in enumerate(vals) if v != 0]
    if len(support) >= 2:
        for i in range(support[0] + 1, support[-1]):
            if vals[i] == 0:
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


def pf_minor_check(seq: Sequence, max_order: int = 3) -> SequenceVerdict:
    """Nonnegativity of all Toeplitz minors of the sequence up to max_order.

    The matrix entries are a_{i-j} (zero outside the sequence range).
    Row and column indices run over 0..n+max_order-1 so every minor
    shape of the given orders appears; a shift of both index sets leaves
    a minor unchanged, so only representatives with a zero minimum index
    are evaluated.  The reported witness is still the lexicographically
    first negative minor ordered by (order, rows, cols): any negative
    minor shifts down to an equal canonical one that precedes it.

    This is a necessary condition for the sequence to be a Polya
    frequency sequence, not the full (all-orders) decision.  Entries are
    scaled by their common denominator first; scaling multiplies every
    order-s minor by a positive constant, so verdicts are unaffected.
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

    lcm = 1
    for v in vals:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    a = [int(v * lcm) for v in vals]
    P = n + max_order

    # pad with zeros on both sides so a[i-j] becomes one list lookup
    padded = [0] * P + a + [0] * P
    entry = lambda d, _get=padded.__getitem__, _off=P: _get(d + _off)

    def fail(rows, cols, det):
        return SequenceVerdict(
            f"pf_order_{max_order}",
            False,
            MinorWitness(rows, cols, Fraction(det, lcm ** len(rows))),
            clamped,
        )

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
    return SequenceVerdict(f"pf_order_{max_order}", True, None, clamped)
