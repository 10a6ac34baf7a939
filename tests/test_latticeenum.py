"""Generator tables, BFS census, orbit count, and coordinator recovery."""
import math
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordlat.coordinator import LatticeType, coordinator
from coordlat.exactpoly import binom, poly, series_expand
from coordlat.latticeenum import (
    ExpensiveLatticeError,
    LatticeSpec,
    LengthCensus,
    MemoryBudgetExceeded,
    ReconstructionError,
    chamber_lengths,
    enumerate_lengths,
    format_generator_table,
    lattice_spec,
    load_generator_table,
    oracle_verify,
    parse_generator_table,
    recover_coordinator,
    save_generator_table,
)
from coordlat.latticeenum import _SIMPLE_ROOTS, _root_system, _span_rank


def lt(tag, n=None):
    return LatticeType(tag, n) if n is not None else LatticeType(tag)


def test_generator_counts_per_family():
    assert len(lattice_spec(lt("A", 2)).generators) == 6
    assert len(lattice_spec(lt("B", 3)).generators) == 18
    assert len(lattice_spec(lt("C", 3)).generators) == 18
    assert len(lattice_spec(lt("D", 4)).generators) == 24
    assert len(lattice_spec(lt("G2")).generators) == 12
    assert len(lattice_spec(lt("F4")).generators) == 48
    assert len(lattice_spec(lt("E6"), allow_expensive=True).generators) == 72
    assert len(lattice_spec(lt("E7"), allow_expensive=True).generators) == 126
    assert len(lattice_spec(lt("E8"), allow_expensive=True).generators) == 240


def _reference_tables(t):
    """LatticeSpec for t from the hand-written generator builders.

    These are the tables the package shipped before it closed them from
    simple roots; every field, label included, must stay the same.
    """

    def pm_pairs(n):
        out = []
        for i, j in combinations(range(n), 2):
            for si, sj in product((1, -1), repeat=2):
                v = [0] * n
                v[i], v[j] = si, sj
                out.append(tuple(v))
        return out

    def axis(n, i, c):
        return tuple(c if k == i else 0 for k in range(n))

    def doubled(vs, pad=()):
        return [tuple(2 * c for c in v) + pad for v in vs]

    def negatives(vs):
        return vs + [tuple(-c for c in v) for v in vs]

    def odd(eps):
        return sum(1 for e in eps if e < 0) % 2

    tag, n = t.tag, t.rank
    if tag == "A":
        gens = [tuple(1 if k == i else -1 if k == j else 0 for k in range(n + 1))
                for i in range(n + 1) for j in range(n + 1) if i != j]
        return LatticeSpec(n + 1, n, tuple(gens), 1, str(t))
    if tag in "BCD":
        c = {"B": 1, "C": 2, "D": 0}[tag]
        gens = pm_pairs(n) + [axis(n, i, s * c) for i in range(n) for s in (1, -1) if c]
        return LatticeSpec(n, n, tuple(gens), 1, str(t))
    if tag == "G2":
        gens = negatives([(1, -1, 0), (1, 0, -1), (0, 1, -1)])
        gens += negatives([(2, -1, -1), (-1, 2, -1), (-1, -1, 2)])
        return LatticeSpec(3, 2, tuple(gens), 1, "G2")
    if tag == "F4":
        gens = [axis(4, i, s) for i in range(4) for s in (2, -2)] + doubled(pm_pairs(4))
        gens += list(product((1, -1), repeat=4))
        return LatticeSpec(4, 4, tuple(gens), 2, "F4")
    if tag == "E8":
        gens = doubled(pm_pairs(8)) + [e for e in product((1, -1), repeat=8) if not odd(e)]
        return LatticeSpec(8, 8, tuple(gens), 2, "E8")
    if tag == "E7":
        gens = doubled(pm_pairs(6), (0, 0)) + negatives([(0, 0, 0, 0, 0, 0, 2, -2)])
        gens += negatives([e + (1, -1) for e in product((1, -1), repeat=6) if odd(e)])
        return LatticeSpec(8, 7, tuple(gens), 2, "E7")
    assert tag == "E6"
    gens = doubled(pm_pairs(5), (0, 0, 0))
    gens += negatives([e + (-1, -1, 1) for e in product((1, -1), repeat=5) if not odd(e)])
    return LatticeSpec(8, 6, tuple(gens), 2, "E6")


ALL_TYPES = [lt(t, n) for t in "ABC" for n in range(1, 13)] + [lt("D", n) for n in range(2, 13)]
ALL_TYPES += [lt(t) for t in ("G2", "F4", "E6", "E7", "E8")]


def _fields(spec):
    return spec.ambient_dim, spec.rank, spec.generators, spec.scale, spec.label


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_closed_tables_equal_the_hand_written_ones(t):
    assert _fields(lattice_spec(t, allow_expensive=True)) == _fields(_reference_tables(t))


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_root_counts(t):
    n = t.rank
    want = {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n, "D": 2 * n * (n - 1),
            "G2": 12, "F4": 48, "E6": 72, "E7": 126, "E8": 240}[t.tag]
    assert len(lattice_spec(t, allow_expensive=True).generators) == want


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_closure_carries_simple_root_coordinates(t):
    # each positive root is sum m_i alpha_i with m >= 0; Macdonald's
    # product of (ht + 1) / ht over them is |W|, and for an irreducible
    # type the highest root has height h - 1, h the Coxeter number
    simple = _SIMPLE_ROOTS[t.tag](t.rank)
    roots = _root_system(simple)
    for v, m in roots.items():
        assert len(m) == t.rank and all(type(x) is int and x >= 0 for x in m), (v, m)
        assert v == tuple(sum(x * a[k] for x, a in zip(m, simple)) for k in range(len(v)))
    n, f = t.rank, math.factorial(t.rank)
    order = {"A": (n + 1) * f, "B": 2**n * f, "C": 2**n * f, "D": 2 ** (n - 1) * f,
             "G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}[t.tag]
    heights = [sum(m) for m in roots.values()]
    assert math.prod(Fraction(h + 1, h) for h in heights) == order
    if t != lt("D", 2):
        coxeter = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2,
                   "G2": 6, "F4": 12, "E6": 12, "E7": 18, "E8": 30}[t.tag]
        assert max(heights) == coxeter - 1


def test_declared_ranks_match_span():
    # LatticeSpec recomputes the span rank on construction, so building
    # each table is itself the check
    for tag in ("G2", "F4", "E6", "E7", "E8"):
        spec = lattice_spec(lt(tag), allow_expensive=True)
        assert spec.rank == LatticeType(tag).rank


def test_e_series_is_gated():
    for tag in ("E6", "E7", "E8"):
        with pytest.raises(ExpensiveLatticeError):
            lattice_spec(lt(tag))


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(2, 1, ((1, 0),))  # not symmetric
    with pytest.raises(ValueError):
        LatticeSpec(2, 1, ((0, 0),))  # zero vector
    with pytest.raises(ValueError):
        LatticeSpec(2, 2, ((1, 0), (-1, 0)))  # wrong rank
    with pytest.raises(ValueError):
        LatticeSpec(2, 1, ((1, 0, 0), (-1, 0, 0)))  # wrong length
    with pytest.raises(ValueError):
        LatticeSpec(1, 1, ())  # empty


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_lengths(lattice_spec(lt("A", 1)), -1), "K must be >= 0"),
        (lambda: LatticeSpec(1, 1, ((1,), (-1,), (1,))), "duplicate generators"),
        (lambda: LatticeSpec(1, 1, ((1,), (-1,)), scale=0), "scale must be a positive integer"),
    ],
    ids=["negative_K", "duplicate", "scale_0"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


def test_census_validation():
    spec = lattice_spec(lt("A", 1))
    with pytest.raises(ValueError):
        LengthCensus(spec, 2, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        LengthCensus(spec, 1, (2, 2))  # S(0) != 1
    with pytest.raises(ValueError):
        LengthCensus(spec, 1, (1, 3))  # odd level


def test_known_small_censuses():
    run = lambda t, K: enumerate_lengths(lattice_spec(t), K).counts
    assert run(lt("A", 1), 4) == (1, 2, 2, 2, 2)
    assert run(lt("A", 2), 3) == (1, 6, 12, 18)
    # derived independently: series of the closed form
    assert run(lt("B", 2), 4) == (1, 8, 16, 24, 32)
    assert run(lt("C", 2), 4) == (1, 8, 16, 24, 32)
    assert run(lt("G2"), 4) == (1, 12, 30, 48, 66)


@pytest.mark.parametrize(
    "tag,n",
    [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 2), ("D", 3)],
)
def test_census_matches_closed_form_series(tag, n):
    t = lt(tag, n)
    census = enumerate_lengths(lattice_spec(t), 6)
    h = coordinator(t).poly
    assert census.counts == series_expand(h, n, 6)


@pytest.mark.parametrize("tag,n", [("A", 7), ("B", 8), ("C", 8), ("D", 8)])
def test_eight_coordinate_tables_match_closed_form(tag, n):
    t = lt(tag, n)
    spec = lattice_spec(t)
    assert spec.ambient_dim == 8
    census = enumerate_lengths(spec, 3)
    assert census.counts == series_expand(coordinator(t).poly, n, 3)


def test_e_series_censuses():
    # Conway & Sloane, "Low-dimensional lattices VII: coordination
    # sequences", Proc. R. Soc. A 453 (1997)
    known = {
        "E6": (1, 72, 1062, 6696),
        "E7": (1, 126, 2898, 25886),
        "E8": (1, 240, 9120),
    }
    for tag, want in known.items():
        spec = lattice_spec(lt(tag), allow_expensive=True)
        assert enumerate_lengths(spec, len(want) - 1).counts == want


@pytest.mark.parametrize("tag,K", [("G2", 12), ("F4", 6), ("E6", 4), ("E7", 3), ("E8", 3)])
def test_orbit_count_equals_the_bfs(tag, K):
    bfs = enumerate_lengths(lattice_spec(lt(tag), allow_expensive=True), K)
    for k in range(K + 1):
        census = chamber_lengths(lt(tag), k)
        assert census.counts == bfs.counts[: k + 1], (tag, k)
    assert census.spec == bfs.spec


# Conway & Sloane, Proc. R. Soc. A 453 (1997)
CONWAY_SLOANE = {
    "G2": [1, 10, 7],
    "F4": [1, 44, 198, 140, 1],
    "E6": [1, 66, 645, 1384, 645, 66, 1],
    "E7": [1, 119, 2037, 8211, 8787, 2037, 119, 1],
    "E8": [1, 232, 7228, 55384, 133510, 107224, 24508, 232, 1],
}


@pytest.mark.parametrize("tag", list(CONWAY_SLOANE))
def test_orbit_count_gives_the_conway_sloane_series(tag):
    n = lt(tag).rank
    census = chamber_lengths(lt(tag), n + 2)
    assert census.counts == series_expand(poly(CONWAY_SLOANE[tag]), n, n + 2)


def test_orbit_count_gives_the_closed_form_series_through_rank_ten():
    t0 = time.perf_counter()
    for tag in "ABCD":
        for n in range(3 if tag == "D" else 1, 11):
            t = lt(tag, n)
            want = series_expand(coordinator(t).poly, n, n + 2)
            assert chamber_lengths(t, n + 2).counts == want, t
    assert time.perf_counter() - t0 < 3


def test_orbit_count_input_checks():
    with pytest.raises(ValueError, match="no single highest root"):
        chamber_lengths(lt("D", 2), 3)
    with pytest.raises(ValueError, match="K must be >= 0"):
        chamber_lengths(lt("G2"), -1)
    assert chamber_lengths(lt("A", 1), 0).counts == (1,)


def _unimodular_image(spec, lower, upper):
    """The spec's generators mapped by lower @ upper.

    Both factors are unit triangular, so the product has determinant 1:
    it is an automorphism of Z^n and keeps every word length.
    """
    n = spec.ambient_dim
    m = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    gens = tuple(tuple(sum(row[j] * g[j] for j in range(n)) for row in m) for g in spec.generators)
    return LatticeSpec(n, spec.rank, gens)


def test_unimodular_image_keeps_the_census():
    cases = [
        (lt("D", 4), ((1, 0, 0, 0), (2, 1, 0, 0), (0, 3, 1, 0), (1, 0, 2, 1)),
         ((1, 3, 0, 1), (0, 1, 2, 0), (0, 0, 1, 3), (0, 0, 0, 1)), 5),
        (lt("B", 3), ((1, 0, 0), (3, 1, 0), (2, 4, 1)),
         ((1, 2, 1), (0, 1, 3), (0, 0, 1)), 5),
    ]
    for t, lower, upper, K in cases:
        spec = lattice_spec(t)
        skew = _unimodular_image(spec, lower, upper)
        assert skew.max_component > 6
        assert enumerate_lengths(skew, K).counts == enumerate_lengths(spec, K).counts


def _reference_span_rank(vectors):
    """Rank by Gaussian elimination over Fraction, row by pivot column."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                for j in range(c, cols):
                    rows[i][j] -= f * rows[r][j]
        r += 1
    return r


def _reference_counts(spec, K):
    """Census by the BFS that stores both x and -x of every pair."""
    B = 2 * K * spec.max_component + 1
    deltas = [sum(c * B**i for i, c in enumerate(g)) for g in spec.generators]
    prev, cur = set(), {0}
    counts = [1]
    for _ in range(K):
        prev, cur = cur, {v + d for v in cur for d in deltas} - cur - prev
        counts.append(len(cur))
    return tuple(counts)


@st.composite
def _matrices(draw):
    """Up to 12 integer rows in the span of at most `cols` drawn rows.

    Small mixing coefficients make zero, duplicate and dependent rows
    common, and the span is often rank-deficient.
    """
    cols = draw(st.integers(1, 6))
    entries = st.integers(-5, 5) | st.integers(-(10**6), 10**6)
    base = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=cols))
    mixes = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    rows = [
        [sum(m * b[j] for m, b in zip(mix, base)) for j in range(cols)]
        for mix in draw(st.lists(mixes, max_size=8))
    ]
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    if draw(st.booleans()):
        rows.append([0] * cols)
    return draw(st.permutations(rows + base))


@given(_matrices())
@settings(max_examples=200, deadline=None)
def test_span_rank_matches_fraction_elimination(rows):
    assert _span_rank(tuple(map(tuple, rows))) == _reference_span_rank(rows)


def test_wrong_declared_rank_is_rejected():
    e7 = lattice_spec(lt("E7"), allow_expensive=True)
    assert (e7.ambient_dim, e7.rank) == (8, 7)
    with pytest.raises(ValueError, match="declared rank 8, span has rank 7"):
        LatticeSpec(8, 8, e7.generators)


@pytest.mark.parametrize(
    "t",
    [lt(t, n) for t in "ABC" for n in range(1, 31)] + [lt("D", n) for n in range(2, 31)]
    + [lt(t) for t in ("G2", "F4", "E6", "E7", "E8")],
    ids=str,
)
def test_first_half_of_a_built_in_table_has_its_rank(t):
    g = lattice_spec(t, allow_expensive=True).generators
    assert _span_rank(g[: len(g) // 2]) == _span_rank(g) == t.rank


BUILT_IN = [lt(t, n) for t in "ABC" for n in range(1, 5)] + [lt("D", n) for n in range(2, 6)]
BUILT_IN += [lt(t) for t in ("G2", "F4", "E6", "E7", "E8")]


@pytest.mark.parametrize("t", BUILT_IN, ids=str)
def test_kernel_matches_full_bfs_on_built_in_tables(t):
    spec = lattice_spec(t, allow_expensive=True)
    K = {"E6": 2, "E7": 2, "E8": 2, "F4": 3}.get(t.tag, 4)
    assert enumerate_lengths(spec, K).counts == _reference_counts(spec, K)


@st.composite
def _symmetric_tables(draw):
    """Generator sets closed under negation, components up to 6 in size.

    Spans may be rank-deficient and generators collinear.
    """
    dim = draw(st.integers(1, 4))
    comp = st.integers(-6, 6)
    vecs = draw(st.lists(st.lists(comp, min_size=dim, max_size=dim), min_size=1, max_size=5))
    gens = {tuple(v) for v in vecs if any(v)} or {(1,) + (0,) * (dim - 1)}
    gens |= {tuple(-c for c in g) for g in gens}
    return LatticeSpec(dim, _reference_span_rank(sorted(gens)), tuple(gens))


def reference_spec_checks(dim, rank, generators, scale=1):
    """LatticeSpec's checks as first written, one scan each: the sorted generators or the message."""
    gens = tuple(sorted(tuple(map(int, g)) for g in generators))
    if not gens:
        return "generator set is empty"
    if any(len(g) != dim for g in gens):
        return "generator length differs from ambient_dim"
    if any(all(c == 0 for c in g) for g in gens):
        return "zero vector among generators"
    if len(set(gens)) != len(gens):
        return "duplicate generators"
    gset = set(gens)
    for g in gens:
        if tuple(-c for c in g) not in gset:
            return f"generator set not symmetric: missing -{g}"
    if scale < 1:
        return "scale must be a positive integer"
    got = _span_rank(gens)
    return gens if got == rank else f"declared rank {rank}, span has rank {got}"


def spec_checks(dim, rank, generators, scale=1):
    try:
        return LatticeSpec(dim, rank, generators, scale).generators
    except ValueError as err:
        return str(err)


@given(
    st.integers(1, 3),
    st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=3), max_size=6),
    st.booleans(),
    st.integers(0, 3),
    st.integers(0, 2),
)
@settings(max_examples=300, deadline=None)
def test_spec_checks_match_the_one_scan_reference(dim, vecs, symmetrize, rank, scale):
    # ragged, zero, repeated and one-sided vectors, each check's message
    # in the reference's order
    gens = [tuple(v) for v in vecs]
    if symmetrize:
        gens += [tuple(-c for c in g) for g in gens]
    want = reference_spec_checks(dim, rank, gens, scale)
    assert spec_checks(dim, rank, gens, scale) == want


@given(_symmetric_tables())
@settings(max_examples=100, deadline=None)
def test_drawn_tables_pass_the_one_scan_reference(spec):
    args = (spec.ambient_dim, spec.rank, spec.generators[::-1], spec.scale)
    assert spec_checks(*args) == reference_spec_checks(*args) == spec.generators


def test_built_in_tables_pass_the_one_scan_reference():
    tables = [lt(t, n) for t in "ABC" for n in range(1, 13)] + [lt("D", n) for n in range(2, 13)]
    for ltype in tables + [lt("G2"), lt("F4"), lt("E6"), lt("E7"), lt("E8")]:
        spec = lattice_spec(ltype, allow_expensive=True)
        args = (spec.ambient_dim, spec.rank, spec.generators[::-1], spec.scale)
        assert spec_checks(*args) == reference_spec_checks(*args) == spec.generators
        # one generator of a pair dropped
        args = (spec.ambient_dim, spec.rank, spec.generators[1:], spec.scale)
        assert spec_checks(*args) == reference_spec_checks(*args)


@given(_symmetric_tables(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_full_bfs_on_drawn_tables(spec, K):
    assert enumerate_lengths(spec, K).counts == _reference_counts(spec, K)


@given(_symmetric_tables())
@settings(max_examples=100, deadline=None)
def test_first_half_of_a_drawn_table_has_its_rank(spec):
    # sorted, the vectors whose first nonzero entry is negative come first
    g = spec.generators
    assert _span_rank(g[: len(g) // 2]) == _span_rank(g)


@pytest.mark.parametrize("gens", [((1,), (-1,), (2,), (-2,)), ((3,), (-3,)),
                                  ((1, 2), (-1, -2), (2, 4), (-2, -4)),
                                  ((6, -5, 0), (-6, 5, 0), (1, 1, 1), (-1, -1, -1))])
def test_kernel_matches_full_bfs_on_collinear_and_skewed_tables(gens):
    spec = LatticeSpec(len(gens[0]), _reference_span_rank(gens), gens)
    assert enumerate_lengths(spec, 7).counts == _reference_counts(spec, 7)


def test_line_census_with_wide_steps():
    line = LatticeSpec(1, 1, ((3,), (-3,)))
    assert enumerate_lengths(line, 50).counts == (1,) + (2,) * 50


def test_backend_keyword_is_inert():
    spec = lattice_spec(lt("D", 4))
    default = enumerate_lengths(spec, 4).counts
    assert enumerate_lengths(spec, 4, backend="python").counts == default
    assert enumerate_lengths(spec, 4, backend="auto").counts == default
    for bad in ("native", "cython"):
        with pytest.raises(ValueError):
            enumerate_lengths(spec, 4, backend=bad)


def test_memory_budget_partial_result():
    spec = lattice_spec(lt("D", 4))
    with pytest.raises(MemoryBudgetExceeded) as exc:
        enumerate_lengths(spec, 12, memory_budget_mib=0)
    err = exc.value
    assert err.last_completed_level >= 1
    assert err.partial_counts[0] == 1
    assert len(err.partial_counts) == err.last_completed_level + 1
    full = enumerate_lengths(spec, err.last_completed_level).counts
    assert err.partial_counts == full
    # a budget the walk fits into changes nothing
    assert enumerate_lengths(spec, 6, memory_budget_mib=64).counts == enumerate_lengths(spec, 6).counts


def test_negative_memory_budget_is_rejected():
    # a budget below 0 is an input error, not a walk stopped after level 1
    spec = lattice_spec(lt("A", 2))
    with pytest.raises(ValueError) as exc:
        enumerate_lengths(spec, 3, memory_budget_mib=-5)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "memory budget must be >= 0 MiB, got -5"


def test_recovery_round_trip():
    for tag, n in [("A", 2), ("B", 2), ("C", 3), ("D", 3)]:
        t = lt(tag, n)
        census = enumerate_lengths(lattice_spec(t), 6)
        assert recover_coordinator(census) == coordinator(t).poly


def test_recovery_needs_depth():
    census = enumerate_lengths(lattice_spec(lt("D", 4)), 3)
    with pytest.raises(ValueError):
        recover_coordinator(census)


def test_recovery_rejects_inconsistent_counts():
    spec = lattice_spec(lt("D", 2))
    with pytest.raises(ReconstructionError):
        recover_coordinator(LengthCensus(spec, 3, (1, 4, 8, 14)))
    with pytest.raises(ReconstructionError):
        recover_coordinator(LengthCensus(spec, 2, (1, 2, 2)))


def binomial_recovery(census):
    """recover_coordinator by binomial sums and a re-expansion of the series."""
    d = census.spec.rank
    if census.K < d:
        raise ValueError(f"census depth {census.K} is below the rank {d}")
    S = census.counts
    coeffs = [sum((-1) ** i * binom(d, i) * S[j - i] for i in range(j + 1)) for j in range(d + 1)]
    for j, h in enumerate(coeffs):
        if h < 0:
            raise ReconstructionError(
                f"negative coefficient h_{j} = {h}; census does not come "
                f"from a rank-{d} coordinator polynomial"
            )
    p = poly(coeffs)
    if list(series_expand(p, d, census.K)) != list(S):
        raise ReconstructionError("recovered polynomial fails to reproduce the census")
    return p


RANK_AT_MOST_4 = [lt(t, n) for t in "ABC" for n in range(1, 5)] + [lt("D", n) for n in range(2, 5)]
RANK_AT_MOST_4 += [lt("G2"), lt("F4")]


@lru_cache(maxsize=None)
def _census_counts(t, K):
    return enumerate_lengths(lattice_spec(t), K).counts


def _outcome(f, census):
    try:
        return f(census)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _perturbed_censuses(draw):
    """A built-in census of rank <= 4 at K = 0..rank+3, zero to two of its
    levels beyond the origin moved by an even amount that keeps them >= 0."""
    t = draw(st.sampled_from(RANK_AT_MOST_4))
    K = draw(st.integers(0, t.rank + 3))
    counts = list(_census_counts(t, K))
    if K:
        for k in draw(st.lists(st.integers(1, K), max_size=2)):
            counts[k] += 2 * draw(st.integers(-(counts[k] // 2), 3))
    return LengthCensus(lattice_spec(t), K, tuple(counts))


@given(_perturbed_censuses())
@settings(max_examples=300, deadline=None)
def test_differences_recover_what_binomial_sums_recover(census):
    assert _outcome(recover_coordinator, census) == _outcome(binomial_recovery, census)


def test_oracle_reports():
    rep = oracle_verify(lt("A", 2), 3)
    assert rep.matched
    assert rep.census.counts == (1, 6, 12, 18)
    assert rep.first_mismatch is None

    rep = oracle_verify(lt("G2"), 4)
    assert rep.matched
    assert [int(c) for c in rep.recovered.coeffs] == [1, 10, 7]


def test_matching_series_recovers_the_closed_form():
    # the first d + 1 coefficients of (1-x)^d h/(1-x)^d are h, since
    # deg h <= d, so a census that matches the series recovers h itself
    for tag in "ABCD":
        for n in range(2 if tag == "D" else 1, 13):
            t = lt(tag, n)
            h = coordinator(t).poly
            spec = lattice_spec(t)
            for K in range(n, n + 4):
                assert recover_coordinator(LengthCensus(spec, K, series_expand(h, n, K))) == h, (t, K)


def test_matched_closed_form_is_reported_without_recovery(monkeypatch):
    import coordlat.latticeenum as le

    def no_recovery(census):
        raise AssertionError("recover_coordinator called")

    monkeypatch.setattr(le, "recover_coordinator", no_recovery)
    real = le.enumerate_lengths
    for tag in "ABCD":
        for n in range(2 if tag == "D" else 1, 7):
            t = lt(tag, n)
            h = coordinator(t).poly

            # the census the BFS counts (criterion 8), without its cost at rank 6
            def series_census(spec, K, h=h, **kw):
                return LengthCensus(spec, K, tuple(map(int, series_expand(h, spec.rank, K))))

            monkeypatch.setattr(le, "enumerate_lengths", series_census)
            for K in range(n, n + 3):
                rep = oracle_verify(t, K)
                assert rep.matched and rep.recovered == rep.closed_form == h, (t, K)
    monkeypatch.setattr(le, "enumerate_lengths", real)
    for tag in ("G2", "F4"):
        with pytest.raises(AssertionError, match="recover_coordinator called"):
            oracle_verify(lt(tag), lt(tag).rank)


@pytest.mark.parametrize("level", [1, 3, 5])
def test_closed_form_mismatch_is_reported(corrupt_census, level):
    # B3 at K = 5: levels below, at and beyond the rank
    t = lt("B", 3)
    h = coordinator(t).poly
    want = series_expand(h, 3, 5)[level]
    corrupt_census(level)
    rep = oracle_verify(t, 5)
    assert not rep.matched
    assert rep.first_mismatch == (level, want, want + 2)
    assert all(type(v) is int for v in rep.first_mismatch)
    assert rep.census.counts[level] == want + 2
    assert (rep.closed_form, rep.recovered) == (h, None)
    assert rep.detail == f"series mismatch at k={level}"


@pytest.mark.parametrize("tag,K,level", [("F4", 4, 2), ("G2", 2, 1), ("G2", 4, 4)])
def test_exceptional_census_is_checked_against_the_orbit_count(corrupt_census, tag, K, level):
    # recovery alone passes the first two: it checks no level at K = rank
    want = chamber_lengths(lt(tag), K).counts[level]
    corrupt_census(level)
    rep = oracle_verify(lt(tag), K)
    assert not rep.matched
    assert rep.first_mismatch == (level, want, want + 2)
    assert (rep.closed_form, rep.recovered) == (None, None)
    assert rep.detail == f"orbit count mismatch at k={level}"


def test_isomorphic_lattices_have_equal_censuses():
    a3 = enumerate_lengths(lattice_spec(lt("A", 3)), 5).counts
    d3 = enumerate_lengths(lattice_spec(lt("D", 3)), 5).counts
    assert a3 == d3
    b2 = enumerate_lengths(lattice_spec(lt("B", 2)), 5).counts
    c2 = enumerate_lengths(lattice_spec(lt("C", 2)), 5).counts
    assert b2 == c2


def test_scale_does_not_change_the_census():
    spec = lattice_spec(lt("D", 3))
    doubled = LatticeSpec(
        spec.ambient_dim,
        spec.rank,
        tuple(tuple(2 * c for c in g) for g in spec.generators),
        scale=2,
    )
    assert (
        enumerate_lengths(spec, 5).counts == enumerate_lengths(doubled, 5).counts
    )


def test_generator_table_round_trip(tmp_path):
    spec = lattice_spec(lt("F4"))
    text = format_generator_table(spec)
    head = text.splitlines()[0]
    assert head == "dim=4 rank=4 scale=2"
    assert parse_generator_table(text) == spec

    path = tmp_path / "f4.gens"
    save_generator_table(spec, path)
    assert load_generator_table(path) == spec


def test_generator_table_rejects_garbage():
    with pytest.raises(ValueError):
        parse_generator_table("")
    with pytest.raises(ValueError):
        parse_generator_table("dim=x rank=1 scale=1\n1\n-1\n")


def test_generator_table_header_item_without_value_is_named():
    with pytest.raises(ValueError, match="bad generator table header: 'dim=2 rank=1 scale'"):
        parse_generator_table("dim=2 rank=1 scale\n1 0\n-1 0\n")


def test_generator_table_non_integer_entry_names_its_row():
    with pytest.raises(ValueError, match="row 2: .*'-1 a'"):
        parse_generator_table("dim=2 rank=1 scale=1\n1 0\n-1 a\n")


def test_generator_table_row_of_wrong_length_names_its_row():
    with pytest.raises(ValueError, match="row 2: expected 2 entries, got 3: '-1 0 0'"):
        parse_generator_table("dim=2 rank=1 scale=1\n1 0\n-1 0 0\n")


@given(st.integers(1, 3), st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_census_levels_are_even_after_origin(n, K):
    census = enumerate_lengths(lattice_spec(lt("B", n)), K)
    assert census.counts[0] == 1
    assert all(c % 2 == 0 for c in census.counts[1:])
