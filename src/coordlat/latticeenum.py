"""Brute-force enumeration of lattice points by word length.

A lattice is described by a finite symmetric generator set of integer
vectors.  Breadth-first search counts the points whose shortest word in
the generators has length exactly k; those counts recover the
coordinator polynomial of the lattice, which cross-checks the closed
forms and handles the exceptional lattices that have none here.

Every built-in table is a root system: all the roots of A_n, B_n, C_n,
D_n, G2, F4, E6, E7 or E8, closed by reflections from the type's simple
roots.  F4 and the E series are doubled to keep them integral.

One breadth-first kernel does the counting.  It keys each point by a
single Python int, so a generator step is one integer addition, and it
keeps one key per pair x, -x of the last two levels of the walk only.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import neg
from pathlib import Path
from typing import Optional

from .coordinator import CLOSED_FORM_TAGS, LatticeType, coordinator
from .exactpoly import Polynomial, poly, series_expand

__all__ = [
    "LatticeSpec",
    "LengthCensus",
    "OracleReport",
    "MemoryBudgetExceeded",
    "ExpensiveLatticeError",
    "ReconstructionError",
    "lattice_spec",
    "enumerate_lengths",
    "recover_coordinator",
    "oracle_verify",
    "format_generator_table",
    "parse_generator_table",
    "save_generator_table",
    "load_generator_table",
]

# a set slot holds a cached hash and a pointer next to the int it keys
_SET_SLOT_BYTES = 16


class MemoryBudgetExceeded(RuntimeError):
    """Enumeration stopped early; partial counts are attached."""

    def __init__(self, last_completed_level: int, partial_counts: tuple[int, ...]):
        self.last_completed_level = last_completed_level
        self.partial_counts = partial_counts
        super().__init__(
            f"memory budget exceeded after level {last_completed_level}; "
            f"partial counts {list(partial_counts)}"
        )


class ExpensiveLatticeError(ValueError):
    """E-series enumeration requested without the explicit opt-in."""


class ReconstructionError(ValueError):
    """Census counts are inconsistent with any coordinator polynomial."""


def _span_rank(vectors: tuple[tuple[int, ...], ...]) -> int:
    """Rank of the span over the rationals, by fraction-free elimination.

    Each row is zero at the pivots of the rows before it, so a vector
    reduced against the rows in the order found is zero at all their
    pivots, and when nonzero it is a new row.
    """
    rows: dict[int, list[int]] = {}  # pivot column -> row
    for v in vectors:
        for p, r in rows.items():
            if v[p]:
                v = [r[p] * x - v[p] * y for x, y in zip(v, r)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            g = math.gcd(*v)
            rows[p] = [x // g for x in v]
            if len(rows) == len(v):
                break
    return len(rows)


@dataclass(frozen=True)
class LatticeSpec:
    """A lattice given by generators: symmetric, nonzero, distinct.

    Sorted, a vector with a negative first nonzero entry precedes one
    with a positive one, so the first half of the generators holds one
    vector of each pair x, -x and spans the same space as all of them.
    """

    ambient_dim: int
    rank: int
    generators: tuple[tuple[int, ...], ...]
    scale: int = 1
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # canonical sorted order, so specs built from the same vector set
        # compare equal regardless of construction order
        gens = tuple(sorted(tuple(map(int, g)) for g in self.generators))
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("generator set is empty")
        if any(len(g) != self.ambient_dim for g in gens):
            raise ValueError("generator length differs from ambient_dim")
        if any(all(c == 0 for c in g) for g in gens):
            raise ValueError("zero vector among generators")
        gset = set(gens)
        if len(gset) != len(gens):
            raise ValueError("duplicate generators")
        for g in gens:
            if tuple(map(neg, g)) not in gset:
                raise ValueError(f"generator set not symmetric: missing -{g}")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        got = _span_rank(gens[: len(gens) // 2])
        if got != self.rank:
            raise ValueError(f"declared rank {self.rank}, span has rank {got}")

    @property
    def max_component(self) -> int:
        return max(abs(c) for g in self.generators for c in g)


@dataclass(frozen=True)
class LengthCensus:
    """S(k) = number of points at word length exactly k, k = 0..K."""

    spec: LatticeSpec
    K: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.counts) != self.K + 1:
            raise ValueError("counts length must be K+1")
        if self.counts[0] != 1:
            raise ValueError("S(0) must be 1 (the origin)")
        # negation maps length-k words to length-k words and fixes only
        # the origin, so every level beyond the origin has even size
        for k in range(1, self.K + 1):
            if self.counts[k] < 0 or self.counts[k] % 2:
                raise ValueError(f"S({k})={self.counts[k]} not even and >= 0")


@dataclass(frozen=True)
class OracleReport:
    """Outcome of checking a census against the coordinator polynomial."""

    ltype: LatticeType
    K: int
    matched: bool
    census: LengthCensus
    first_mismatch: Optional[tuple[int, int, int]] = None
    closed_form: Optional[Polynomial] = None
    recovered: Optional[Polynomial] = None
    detail: str = ""


def _steps(dim: int, first: int, last: int, c: int = 1) -> list[tuple[int, ...]]:
    """c(e_i - e_{i+1}) for first <= i < last, counting coordinates from 0."""
    return [(0,) * i + (c, -c) + (0,) * (dim - i - 2) for i in range(first, last)]


# twice (1, -1, ..., -1, 1) / 2: the simple root of E8 with half-integer entries
_H = (1, -1, -1, -1, -1, -1, -1, 1)

# simple roots per type, by rank, in the ambient coordinates of the
# tables; A_n takes n + 1 coordinates and E6, E7 sit inside E8's eight
_SIMPLE_ROOTS = {
    "A": lambda n: _steps(n + 1, 0, n),
    "B": lambda n: _steps(n, 0, n - 1) + [(0,) * (n - 1) + (1,)],
    "C": lambda n: _steps(n, 0, n - 1) + [(0,) * (n - 1) + (2,)],
    "D": lambda n: _steps(n, 0, n - 1) + [(0,) * (n - 2) + (1, 1)],
    "G2": lambda n: [(1, -1, 0), (-1, 2, -1)],
    "F4": lambda n: [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)],
    "E6": lambda n: [(1, -1, -1, -1, 1, 1, 1, -1), _H] + _steps(8, 1, 3, 2)
        + [(0, 0, 0, 2, 2, 0, 0, 0), (0, 0, 0, 2, -2, 0, 0, 0)],
    "E7": lambda n: [_H] + _steps(8, 1, 4, 2)
        + [(0, 0, 0, 0, 2, 2, 0, 0), (0, 0, 0, 0, 2, -2, 0, 0), (0, 0, 0, 0, 0, 0, 2, -2)],
    "E8": lambda n: [_H] + _steps(8, 1, 7, 2) + [(0, 0, 0, 0, 0, 0, 2, 2)],
}
# F4 and the E series are doubled so the half-integer vectors are
# integral; word lengths do not see the global scale
_SCALE = {"F4": 2, "E6": 2, "E7": 2, "E8": 2}


def _root_system(simple: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Every root, of both signs, of the system with these simple roots.

    Each positive root that is not simple is s_i(v) = v - <v, a_i^v> a_i
    for a lower positive root v with <v, a_i^v> < 0, so raising by those
    reflections reaches them all.  Only a simple root that meets a
    nonzero coordinate of v can have <v, a_i^v> != 0.
    """
    sparse = [[(k, c) for k, c in enumerate(a) if c] for a in simple]
    norms = [sum(c * c for _, c in s) for s in sparse]
    touching = [[i for i, a in enumerate(simple) if a[k]] for k in range(len(simple[0]))]
    positive = set(simple)
    todo = list(simple)
    while todo:
        v = todo.pop()
        for i in {i for k, x in enumerate(v) if x for i in touching[k]}:
            m = 0
            for k, c in sparse[i]:
                m += v[k] * c
            if m < 0:
                m = 2 * m // norms[i]  # <v, a_i^v>, an integer for roots
                w = list(v)
                for k, c in sparse[i]:
                    w[k] -= m * c
                w = tuple(w)
                if w not in positive:
                    positive.add(w)
                    todo.append(w)
    return (*positive, *(tuple(map(neg, v)) for v in positive))


def lattice_spec(ltype: LatticeType, allow_expensive: bool = False) -> LatticeSpec:
    """Generator table for the given lattice type: all of its roots.

    The E-series tables have 72 to 240 generators in eight dimensions
    and enumeration over them grows quickly, so they sit behind
    allow_expensive.
    """
    tag = ltype.tag
    if tag in ("E6", "E7", "E8") and not allow_expensive:
        raise ExpensiveLatticeError(
            f"{tag} enumeration is expensive; pass allow_expensive=True "
            "(--allow-expensive on the command line)"
        )
    simple = _SIMPLE_ROOTS[tag](ltype.rank)
    return LatticeSpec(
        len(simple[0]), len(simple), _root_system(simple), _SCALE.get(tag, 1), str(ltype)
    )


def enumerate_lengths(
    spec: LatticeSpec,
    K: int,
    backend: str = "auto",
    memory_budget_mib: Optional[int] = None,
) -> LengthCensus:
    """Census of word lengths 0..K for the given generator set.

    Each point is keyed by one int whose balanced base-B digits are its
    coordinates, B = 2*K*max|component| + 1.  No coordinate within K
    steps of the origin leaves [-(B-1)/2, (B-1)/2], so distinct points
    get distinct keys and a generator step is one integer addition.
    The generators are symmetric, so a level-k point only neighbours
    levels k-1, k and k+1: level k is the neighbourhood of level k-1
    minus levels k-1 and k-2, and no older level is kept.  key(-x) is
    -key(x) and each level is closed under negation, so a level keeps
    one key, abs(key), per pair x, -x and counts twice its size.

    backend is kept only for compatibility with older callers: "auto"
    and "python" both run this kernel, anything else is a ValueError.
    Raises MemoryBudgetExceeded when the keys of the two kept levels
    outgrow the budget before K, and ValueError for a negative budget.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if memory_budget_mib is not None and memory_budget_mib < 0:
        raise ValueError(f"memory budget must be >= 0 MiB, got {memory_budget_mib}")
    if backend not in ("auto", "python"):
        raise ValueError(
            f"unknown backend {backend!r}; 'auto' and 'python' both run the one census kernel"
        )
    B = 2 * K * spec.max_component + 1
    deltas = [sum(c * B**i for i, c in enumerate(g)) for g in spec.generators]
    key_bytes = sys.getsizeof(B**spec.ambient_dim) + _SET_SLOT_BYTES
    budget = None if memory_budget_mib is None else memory_budget_mib * (1 << 20)
    prev, cur = set(), {0}
    counts = [1]
    for level in range(1, K + 1):
        nxt = {abs(v + d) for v in cur for d in deltas}
        nxt.difference_update(cur, prev)
        prev, cur = cur, nxt
        counts.append(2 * len(cur))
        if budget is not None and level < K and (len(prev) + len(cur)) * key_bytes > budget:
            raise MemoryBudgetExceeded(level, tuple(counts))
    return LengthCensus(spec, K, tuple(counts))


def recover_coordinator(census: LengthCensus) -> Polynomial:
    """Coordinator polynomial from a census, by d rounds of differences.

    With d the lattice rank, each round multiplies S(x) by 1 - x, so d
    rounds leave (1-x)^d S(x) mod x^(K+1), whose first d + 1 entries are
    h; a negative h_j raises ReconstructionError.  (1-x)^d is a unit on
    truncated series, so h / (1-x)^d gives back S through K exactly when
    every later entry is 0, and otherwise recovery raises too.
    """
    d = census.spec.rank
    if census.K < d:
        raise ValueError(f"census depth {census.K} is below the rank {d}")
    diffs = list(census.counts)
    for _ in range(d):
        diffs[1:] = [b - a for a, b in zip(diffs, diffs[1:])]
    for j, h in enumerate(diffs[: d + 1]):
        if h < 0:
            raise ReconstructionError(
                f"negative coefficient h_{j} = {h}; census does not come "
                f"from a rank-{d} coordinator polynomial"
            )
    if any(diffs[d + 1:]):
        raise ReconstructionError("recovered polynomial fails to reproduce the census")
    return poly(diffs[: d + 1])


def oracle_verify(
    ltype: LatticeType,
    K: int,
    allow_expensive: bool = False,
    memory_budget_mib: Optional[int] = None,
) -> OracleReport:
    """Check the brute-force census of a built-in type in one pass.

    For A/B/C/D the census must match the closed-form series h/(1-x)^d
    entry by entry, and at K >= d h is reported as the recovered
    polynomial: the first d + 1 coefficients of (1-x)^d times h's series
    are h, since deg h <= d, so recover_coordinator would return h and
    none of its checks could fail.  For the exceptional types it runs,
    and its polynomial is the result; a census shallower than d or
    rejected by recovery is a mismatch.
    """
    spec = lattice_spec(ltype, allow_expensive)
    census = enumerate_lengths(spec, K, memory_budget_mib=memory_budget_mib)
    if ltype.tag not in CLOSED_FORM_TAGS:
        try:
            return OracleReport(ltype, K, True, census, recovered=recover_coordinator(census))
        except ValueError as exc:
            return OracleReport(ltype, K, False, census, detail=str(exc))
    h = coordinator(ltype).poly
    for k, (want, got) in enumerate(zip(series_expand(h, ltype.rank, K), census.counts)):
        if want != got:
            return OracleReport(
                ltype, K, False, census, first_mismatch=(k, int(want), got),
                closed_form=h, detail=f"series mismatch at k={k}",
            )
    recovered = h if K >= ltype.rank else None
    return OracleReport(ltype, K, True, census, closed_form=h, recovered=recovered)


def format_generator_table(spec: LatticeSpec) -> str:
    rows = (" ".join(map(str, g)) for g in spec.generators)
    return "\n".join([f"dim={spec.ambient_dim} rank={spec.rank} scale={spec.scale}", *rows]) + "\n"


def parse_generator_table(text: str) -> LatticeSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty generator table")
    try:
        header = dict(item.split("=", 1) for item in lines[0].split())
        dim, rank, scale = (int(header[key]) for key in ("dim", "rank", "scale"))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad generator table header: {lines[0]!r}") from exc
    gens = []
    for k, ln in enumerate(lines[1:], 1):
        try:
            gens.append(tuple(map(int, ln.split())))
        except ValueError as exc:
            raise ValueError(f"row {k}: entries must be integers: {ln!r}") from exc
        if len(gens[-1]) != dim:
            raise ValueError(f"row {k}: expected {dim} entries, got {len(gens[-1])}: {ln!r}")
    return LatticeSpec(dim, rank, tuple(gens), scale)


def save_generator_table(spec: LatticeSpec, path) -> None:
    Path(path).write_text(format_generator_table(spec))


def load_generator_table(path) -> LatticeSpec:
    return parse_generator_table(Path(path).read_text())
