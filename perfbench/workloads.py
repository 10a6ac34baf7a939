"""The four workloads, each a seeded list of jobs.

A job is one call into coordlat: a CLI command run in-process through
``coordlat.cli.main`` with its output captured, or, for census_skew, the
library pipeline ``LatticeSpec`` -> ``enumerate_lengths`` ->
``recover_coordinator``.  The seed orders the jobs and draws the
census_skew tables; coordlat sees only the generated inputs.

Why each workload (the layer it loads, and what it bypasses):

- census: CLI verify/enumerate on the built-in symmetric tables.
  ``latticeenum`` does nearly all the work; these are the tables an
  orbit-quotient census would speed up.
- census_skew: the same tables mapped through a random unimodular
  matrix.  Word length survives a linear bijection, so the answers are
  unchanged, but the tables have no coordinate symmetry and components
  up to 6.  A change that helps symmetric tables but costs custom ones
  shows here.
- roots: CLI roots and analyze at high rank.  ``realroots`` and
  ``exactpoly`` do almost all the work; type B takes the Sturm
  fallback, A/C/D are ladder-certifiable.
- report: CLI report and an order-3 analyze.  The Toeplitz-minor scan
  in ``seqanalysis`` dominates and root isolation stays light.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import coordlat.cli
import coordlat.latticeenum as le
from coordlat.coordinator import LatticeType

from . import oracles

WORKLOADS = ("census", "census_skew", "roots", "report")


@dataclass(frozen=True)
class Job:
    name: str
    inputs: object
    run: Callable[[], object]
    # None when the output is right, else a one-line reason
    check: Callable[[object], Optional[str]]
    # re-runs the census on the pure-Python backend and compares counts;
    # used once per run when the compiled kernel is present
    backend_check: Optional[Callable[[object], Optional[str]]] = None


@dataclass(frozen=True)
class CliRun:
    rc: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class SkewRun:
    counts: tuple[int, ...]
    coeffs: tuple


def run_cli(argv: tuple[str, ...]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = coordlat.cli.main(list(argv))
    return CliRun(rc, out.getvalue(), err.getvalue())


def _python_counts(spec: le.LatticeSpec, K: int, got) -> Optional[str]:
    want = le.enumerate_lengths(spec, K, backend="python").counts
    return None if list(got) == list(want) else f"backends disagree: {list(got)} != {list(want)}"


def _cli_job(argv: str, *checks, census: Optional[tuple[str, int, int]] = None) -> Job:
    def check(res: CliRun) -> Optional[str]:
        if res.rc != 0:
            return f"exit code {res.rc}: {res.stderr.strip()[:200]}"
        for c in (partial(oracles.check_digest, argv), *checks):
            reason = c(res.stdout)
            if reason:
                return reason
        return None

    backend_check = None
    if census is not None:
        tag, n, K = census
        backend_check = lambda res: _python_counts(
            le.lattice_spec(LatticeType(tag, n), allow_expensive=True), K, oracles.parse_counts(res.stdout)
        )
    return Job(argv, argv, partial(run_cli, tuple(argv.split())), check, backend_check)


# (subcommand, type, n, K); n is ignored for the exceptional types
_CENSUS = {
    "full": [
        ("verify", "D", 4, 9), ("verify", "B", 4, 7), ("verify", "D", 5, 5),
        ("verify", "A", 2, 25), ("verify", "A", 3, 12), ("verify", "B", 3, 12),
        ("verify", "C", 3, 10), ("enumerate", "F4", 4, 5), ("enumerate", "G2", 2, 20),
        ("enumerate", "E6", 6, 3), ("enumerate", "E7", 7, 3), ("enumerate", "E8", 8, 2),
    ],
    "smoke": [
        ("verify", "D", 4, 5), ("verify", "B", 3, 6), ("verify", "A", 2, 10),
        ("enumerate", "F4", 4, 3), ("enumerate", "G2", 2, 8), ("enumerate", "E6", 6, 2),
        ("enumerate", "E7", 7, 2), ("enumerate", "E8", 8, 1),
    ],
}
# (type, rank, K) with K >= rank + 2, so recovery re-expands past its input
_SKEW = {
    "full": [("D", 4, 6), ("B", 4, 6), ("C", 3, 10), ("A", 3, 12), ("D", 5, 7)],
    "smoke": [("D", 4, 6), ("C", 3, 5), ("A", 3, 5)],
}
# (roots rank, analyze rank)
_ROOTS = {"full": (36, 64), "smoke": (12, 24)}
# (report rank, analyze rank)
_REPORT = {"full": (22, 28), "smoke": (10, 12)}


def _census_jobs(size: str) -> list[Job]:
    jobs = []
    for cmd, tag, n, K in _CENSUS[size]:
        argv = f"{cmd} --type {tag}"
        argv += f" --n {n}" if len(tag) == 1 else ""
        argv += f" --K {K}"
        argv += " --allow-expensive" if tag.startswith("E") else ""
        jobs.append(_cli_job(argv, oracles.census_check(tag, n, K), census=(tag, n, K)))
    return jobs


def skewed_table(rng: random.Random, dim: int, gens) -> tuple[tuple[int, ...], ...]:
    """gens mapped through a random unimodular matrix, components 4..6 at most.

    The matrix is a product of 2*dim elementary row additions, so its
    determinant is 1 and the map is a bijection of Z^dim.
    """
    for _ in range(1000):
        U = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(2 * dim):
            i, j = rng.sample(range(dim), 2)
            s = rng.choice((1, -1))
            U[i] = [a + s * b for a, b in zip(U[i], U[j])]
        mapped = tuple(tuple(sum(r[k] * g[k] for k in range(dim)) for r in U) for g in gens)
        if 4 <= max(abs(c) for g in mapped for c in g) <= 6:
            return mapped
    raise RuntimeError("no unimodular map with components in 4..6 found")


def _skew_jobs(size: str, rng: random.Random) -> list[Job]:
    jobs = []
    for tag, n, K in _SKEW[size]:
        base = le.lattice_spec(LatticeType(tag, n))
        dim = base.ambient_dim
        gens = skewed_table(rng, dim, base.generators)
        want_counts = oracles.census(tag, n, K)
        want_h = oracles.closed_form(tag, n)

        def run(dim=dim, n=n, gens=gens, K=K) -> SkewRun:
            census = le.enumerate_lengths(le.LatticeSpec(dim, n, gens), K)
            return SkewRun(census.counts, le.recover_coordinator(census).coeffs)

        def check(res: SkewRun, want_counts=want_counts, want_h=want_h) -> Optional[str]:
            if tuple(res.counts) != want_counts:
                return f"census {list(res.counts)} != {list(want_counts)}"
            if tuple(res.coeffs) != want_h:
                return f"recovered {[str(c) for c in res.coeffs]} != {list(want_h)}"
            return None

        backend_check = lambda res, dim=dim, n=n, gens=gens, K=K: _python_counts(
            le.LatticeSpec(dim, n, gens), K, res.counts
        )
        jobs.append(Job(f"skew {tag}{n} K={K}", gens, run, check, backend_check))
    return jobs


def _roots_jobs(size: str) -> list[Job]:
    n, m = _ROOTS[size]
    jobs = [_cli_job(f"roots --type {t} --n {n}", oracles.roots_check(t, n)) for t in "ABCD"]
    jobs.append(_cli_job(f"analyze --type D --n {m} --max-order 2", oracles.real_rooted_fields(m, 2)))
    jobs.append(_cli_job(f"analyze --type B --n {m} --max-order 2", oracles.fields_check(degree=str(m))))
    return jobs


def _report_jobs(size: str) -> list[Job]:
    n, m = _REPORT[size]
    jobs = [_cli_job(f"report --type {t} --n {n}", oracles.report_check(n)) for t in "AC"]
    jobs.append(_cli_job(f"analyze --type D --n {m}", oracles.real_rooted_fields(m, 3)))
    return jobs


def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The workload's jobs in the seeded order."""
    rng = random.Random(seed)
    if workload == "census":
        jobs = _census_jobs(size)
    elif workload == "census_skew":
        jobs = _skew_jobs(size, rng)
    elif workload == "roots":
        jobs = _roots_jobs(size)
    elif workload == "report":
        jobs = _report_jobs(size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs
