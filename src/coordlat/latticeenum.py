"""Word-length censuses of lattices, and coordinator recovery from them.

A lattice is described by a finite symmetric generator set of integer
vectors.  S(k) counts the points whose shortest word in the generators
has length exactly k; those counts recover the coordinator polynomial
of the lattice, which cross-checks the closed forms and handles the
exceptional lattices that have none here.

Every built-in table is a root system: all the roots of A_n, B_n, C_n,
D_n, G2, F4, E6, E7 or E8, closed by reflections from the type's simple
roots.  F4 and the E series are doubled to keep them integral.  The one
closure carries each positive root's coordinates over the simple roots,
so it gives both the table and the heights and marks the orbit count
needs.

Two counts give the same S(k).  enumerate_lengths is a breadth-first
search over any table: it keys each point by a single Python int, so a
generator step is one integer addition, and it keeps one key per pair
x, -x of the last two levels of the walk only.  chamber_lengths counts
a built-in irreducible type one point per Weyl-group orbit and keeps
no points.  The E-series opt-in of lattice_spec guards only the
search; the orbit count does not pass through it.  The command line
runs the search for A-D, whose closed forms it checks, and the orbit
count for G2, F4 and E6-E8; oracle_verify compares the two on those
five.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import mul, neg
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
    "chamber_lengths",
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


def _row_reduce(vectors: Iterable[Sequence[int]]) -> dict[int, list[int]]:
    """Fraction-free Gauss-Jordan: pivot column -> primitive row.

    Every row is zero at the other rows' pivots, so a vector reduced
    against the rows is zero at all their pivots; when nonzero it is a
    new row, and the rows before it are cleared at its pivot.  There are
    as many rows as the span's rank over the rationals.
    """
    rows: dict[int, list[int]] = {}
    for v in vectors:
        for p, r in rows.items():
            if v[p]:
                v = [r[p] * x - v[p] * y for x, y in zip(v, r)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        g = math.gcd(*v)
        rows[p] = v = [x // g for x in v]
        for q, r in rows.items():
            if q != p and r[p]:
                r = [v[p] * x - r[p] * y for x, y in zip(r, v)]
                g = math.gcd(*r)
                rows[q] = [x // g for x in r]
        if len(rows) == len(v):
            break
    return rows


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
        got = len(_row_reduce(gens[: len(gens) // 2]))
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


def _root_system(simple: list[tuple[int, ...]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The positive roots of the system with these simple roots, and their coordinates m.

    Each positive root that is not simple is w = s_i(v) = v - <v, a_i^v> a_i
    for a lower positive root v with <v, a_i^v> < 0, so raising by those
    reflections reaches them all, and m(w) is m(v) with <v, a_i^v> taken
    from m_i.  Only a simple root that meets a nonzero coordinate of v
    can have <v, a_i^v> != 0.  The keys are the roots in ambient
    coordinates, the values their coordinates over the simple roots.
    """
    r = len(simple)
    sparse = [[(k, c) for k, c in enumerate(a) if c] for a in simple]
    norms = [sum(c * c for _, c in s) for s in sparse]
    touching = [[i for i, a in enumerate(simple) if a[k]] for k in range(len(simple[0]))]
    positive = {a: (0,) * i + (1,) + (0,) * (r - i - 1) for i, a in enumerate(simple)}
    todo = list(simple)
    while todo:
        v = todo.pop()
        for i in {i for k, x in enumerate(v) if x for i in touching[k]}:
            p = 0
            for k, c in sparse[i]:
                p += v[k] * c
            if p < 0:
                p = 2 * p // norms[i]  # <v, a_i^v>, an integer for roots
                w = list(v)
                for k, c in sparse[i]:
                    w[k] -= p * c
                w = tuple(w)
                if w not in positive:
                    m = positive[v]
                    positive[w] = (*m[:i], m[i] - p, *m[i + 1:])
                    todo.append(w)
    return positive


def _spec(ltype: LatticeType, simple: list[tuple[int, ...]], roots: dict) -> LatticeSpec:
    """The table of a built-in type: its positive roots and their negatives."""
    gens = (*roots, *(tuple(map(neg, v)) for v in roots))
    return LatticeSpec(len(simple[0]), len(simple), gens, _SCALE.get(ltype.tag, 1), str(ltype))


def lattice_spec(ltype: LatticeType, allow_expensive: bool = False) -> LatticeSpec:
    """Generator table for the given lattice type: all of its roots.

    The E-series tables have 72 to 240 generators in eight dimensions
    and a breadth-first search over them grows quickly, so they sit
    behind allow_expensive.  The gate guards only that search:
    chamber_lengths builds the same table from the same closure without
    passing through it.
    """
    tag = ltype.tag
    if tag in ("E6", "E7", "E8") and not allow_expensive:
        raise ExpensiveLatticeError(
            f"{tag} enumeration is expensive; pass allow_expensive=True "
            "(--allow-expensive on the command line)"
        )
    simple = _SIMPLE_ROOTS[tag](ltype.rank)
    return _spec(ltype, simple, _root_system(simple))


def _budget_bytes(K: int, memory_budget_mib: Optional[int]) -> Optional[int]:
    """The budget in bytes, once K and then the budget are checked to be >= 0."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if memory_budget_mib is not None and memory_budget_mib < 0:
        raise ValueError(f"memory budget must be >= 0 MiB, got {memory_budget_mib}")
    return None if memory_budget_mib is None else memory_budget_mib * (1 << 20)


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
    budget = _budget_bytes(K, memory_budget_mib)
    if backend not in ("auto", "python"):
        raise ValueError(
            f"unknown backend {backend!r}; 'auto' and 'python' both run the one census kernel"
        )
    B = 2 * K * spec.max_component + 1
    deltas = [sum(c * B**i for i, c in enumerate(g)) for g in spec.generators]
    key_bytes = sys.getsizeof(B**spec.ambient_dim) + _SET_SLOT_BYTES
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


def chamber_lengths(ltype: LatticeType, K: int) -> LengthCensus:
    """Census of a built-in irreducible type, counted on Weyl-group orbits.

    With all the roots as generators, the points of word length <= k
    are the lattice points of k conv(roots) (Conway & Sloane, Proc. R.
    Soc. A 453, 1997; Bacher, de la Harpe & Venkov, C. R. Acad. Sci.
    Paris 325, 1997), and conv(roots) = conv(W theta) for the highest
    root theta = sum c_i alpha_i.  Each W-orbit meets the dominant
    chamber once, in lambda = sum m_i alpha_i with labels a = C m >= 0,
    where C[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i) is the
    Cartan matrix.  lambda lies in k conv(W theta) exactly when
    k theta - lambda is a nonnegative sum of simple roots, so its level
    is ceil(max m_i / c_i).  The walk runs over labels a >= 0 and keeps
    the points with m = C^-1 a integral.  C^-1 is entrywise positive,
    so m only grows along the walk, which turns back once m leaves K c.
    A point stands for its orbit of |W| / |W_J| points, J its zero
    labels, where |W_J| is the product of (ht beta + 1) / ht beta over
    the positive roots beta supported on J (Macdonald, Math. Ann. 199,
    1972).

    One closure, _root_system, gives the census its table and the count
    its heights, supports and marks, read off each root's coordinates m.
    The count does not pass through lattice_spec's E-series gate, which
    guards only the breadth-first search; it takes milliseconds on E8.
    D2 = A1 x A1 has no single highest root and raises ValueError.
    """
    _budget_bytes(K, None)
    simple = _SIMPLE_ROOTS[ltype.tag](ltype.rank)
    roots = _root_system(simple)
    r = len(simple)
    C = [[2 * sum(map(mul, a, b)) // sum(map(mul, a, a)) for b in simple] for a in simple]
    top = max(map(sum, roots.values()))
    highest = [m for m in roots.values() if sum(m) == top]
    if len(highest) != 1:
        raise ValueError(f"{ltype} is not irreducible: it has no single highest root")
    # C is invertible, so [C | I] reduces to rows d_i e_i | b_i, b_i / d_i row i of C^-1
    rows = _row_reduce([row + [int(i == j) for j in range(r)] for i, row in enumerate(C)])
    D = math.lcm(*(rows[i][i] for i in range(r)))
    inv = [[x * D // rows[i][i] for x in rows[i][r:]] for i in range(r)]
    bound = [D * c for c in highest[0]]
    # D m is packed in one int, w bits a coordinate; no field of room[k] - D m
    # loses its top bit exactly when the point's level is at most k
    w = (K * max(bound) + max(map(max, inv))).bit_length() + 1

    def pack(xs) -> int:
        return sum(x << w * i for i, x in enumerate(xs))

    tops = pack([1 << w - 1] * r)
    room = [tops + pack([k * b for b in bound]) for k in range(K + 1)]
    steps = [pack([row[j] for row in inv]) for j in range(r)]
    field = (1 << w) - 1
    tally: dict[int, list[int]] = {}  # zero labels J -> points per level

    def walk(j: int, v: int, level: int, zeros: int) -> None:
        if j == r:
            if D == 1 or all((v >> w * i & field) % D == 0 for i in range(r)):
                tally.setdefault(zeros, [0] * (K + 1))[level] += 1
            return
        walk(j + 1, v, level, zeros | 1 << j)
        while True:
            v += steps[j]
            while (room[level] - v) & tops != tops:
                level += 1
                if level > K:
                    return
            walk(j + 1, v, level, zeros)

    walk(0, 0, 0, 0)
    # each positive root's support bits and height
    sizes = [(sum(1 << i for i, x in enumerate(m) if x), sum(m)) for m in roots.values()]
    counts = [0] * (K + 1)
    for zeros, per in tally.items():
        # |W| / |W_J|: the product over the positive roots off J
        num = den = 1
        for support, height in sizes:
            if support & ~zeros:
                num *= height + 1
                den *= height
        for k, n in enumerate(per):
            counts[k] += num // den * n
    return LengthCensus(_spec(ltype, simple, roots), K, tuple(counts))


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

    The census must match an independent count entry by entry: the
    closed-form series h/(1-x)^d for A/B/C/D, chamber_lengths for the
    exceptional types.  For A/B/C/D at K >= d, h is then reported as the
    recovered polynomial: the first d + 1 coefficients of (1-x)^d times
    h's series are h, since deg h <= d, so recover_coordinator would
    return h and none of its checks could fail.  For the exceptional
    types recovery runs, and its polynomial is the result; a census
    shallower than d or rejected by recovery is a mismatch.
    """
    spec = lattice_spec(ltype, allow_expensive)
    census = enumerate_lengths(spec, K, memory_budget_mib=memory_budget_mib)
    if ltype.tag in CLOSED_FORM_TAGS:
        h = coordinator(ltype).poly
        want, source = series_expand(h, ltype.rank, K), "series"
    else:
        h = None
        want, source = chamber_lengths(ltype, K).counts, "orbit count"
    for k, (exp, got) in enumerate(zip(want, census.counts)):
        if exp != got:
            return OracleReport(
                ltype, K, False, census, first_mismatch=(k, int(exp), got),
                closed_form=h, detail=f"{source} mismatch at k={k}",
            )
    if h is not None:
        recovered = h if K >= ltype.rank else None
        return OracleReport(ltype, K, True, census, closed_form=h, recovered=recovered)
    try:
        return OracleReport(ltype, K, True, census, recovered=recover_coordinator(census))
    except ValueError as exc:
        return OracleReport(ltype, K, False, census, detail=str(exc))


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
