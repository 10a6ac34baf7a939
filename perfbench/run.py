#!/usr/bin/env python3
"""coordlat benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 24 --trace 0

Jobs run serially in this process on one thread: a closed loop with one
client.  ``COORDLAT_THREADS`` is removed from the environment first, so
``report`` never forks a process pool.  Every job's output is checked
against ``oracles`` outside the timed region; a wrong or missing answer,
an exception or a nonzero exit code counts as a failed job.

Times are wall-clock seconds scaled to a reference machine speed that
``calibration`` measures between jobs; on a shared virtual machine the
raw times drift by up to half between stretches of the same run.  The
raw pass times are printed on a line of their own.

--trace 0 reports the end-to-end metrics:
  setup_s       median over fresh interpreters of the time to import
                coordlat and build the workload's jobs
  wall_s        median time of one pass over the jobs
  job_max_s     median over passes of the slowest job in the pass
  peak_rss_mib  the process's peak resident set size
  ok_frac       jobs answered correctly / jobs attempted (the failure
                fraction's complement, so that it is never zero)

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of PER_LAYER: span times from ``tracing``, work
counts, each layer's self time as a share of the traced pass,
``trace.overhead_frac`` (traced over untraced wall time, minus 1), the
rise of the peak RSS across ``enumerate_lengths`` calls in the warm-up
pass, and code size in lines.

The run lasts about --seconds, warm-up included, and makes at least
MIN_PASSES timed passes.  A warm-up pass runs before any timed pass;
when the compiled kernel is present, that pass also re-runs every
census on the pure-Python backend and requires equal counts.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  The program must come from ``src/`` next to this
directory; without it the benchmark exits with status 2 and prints no
result.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calibration, tracing  # noqa: E402  (stdlib only; coordlat comes later)

SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_max_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}
_SPAN_TIMES = (
    "cli.main.s", "cli.main.self_s", "coordinator.coordinator.s",
    "exactpoly.squarefree_decomposition.s", "exactpoly.series_expand.s",
    "realroots.isolate_real_roots.s", "realroots.is_real_rooted.s",
    "realroots.is_real_rooted.self_s", "realroots.d_type_brackets.s",
    "realroots.refine_bracket.s", "seqanalysis.pf_minor_check.s",
    "seqanalysis.check_log_concave.s", "seqanalysis.check_unimodal.s",
    "latticeenum.enumerate_lengths.s", "latticeenum.recover_coordinator.s",
    "latticeenum.oracle_verify.self_s", "latticeenum.lattice_spec.s",
    "latticeenum.LatticeSpec.s",
)
PER_LAYER = {
    **{name: "s" for name in _SPAN_TIMES},
    "realroots.chain_len": "count",
    "realroots.chain_max_bits": "bit",
    "realroots.intervals": "count",
    "latticeenum.points": "count",
    "latticeenum.frontier_max": "count",
    "latticeenum.points_per_s": "1/s",
    "latticeenum.enumerate_lengths.peak_mib": "MiB",
    **{f"{layer}.share": "frac" for layer in tracing.LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    **{f"{layer}.loc": "lines" for layer in ("package",) + tracing.LAYERS},
    "loc.total": "lines",
    "loc.generated": "lines",
}


def import_program():
    """Put this checkout's ``src`` first on the path and import coordlat from it."""
    sys.path.insert(0, str(ROOT / "src"))
    import coordlat

    where = Path(coordlat.__file__).resolve().parent
    if where != ROOT / "src" / "coordlat":
        raise ImportError(f"coordlat imported from {where}, not from {ROOT / 'src'}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import coordlat and build the jobs in this fresh process,
    scaled to the reference speed by three calibration rounds run after."""
    t0 = time.perf_counter()
    import_program()
    from perfbench import workloads

    workloads.build(workload, seed)
    elapsed = time.perf_counter() - t0
    rounds = statistics.median(calibration.round_seconds() for _ in range(3))
    return elapsed * calibration.NOMINAL_S / rounds


def measure_setup(workload: str, seed: int) -> float:
    """Median of SETUP_PROBES fresh-interpreter probes, after one that warms
    the bytecode cache."""
    cmd = [sys.executable, __file__, "--probe-setup", "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Book:
    """Attempted and failed job counts, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, jobs, outputs, backends: bool = False) -> None:
        for job, out in zip(jobs, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                reason = f"raised {out!r}"
            else:
                reason = job.check(out)
                if reason is None and backends and job.backend_check is not None:
                    reason = job.backend_check(out)
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{job.name}: {reason}")


def run_pass(jobs, book: Book, tracer=None, backends: bool = False) -> tuple[list[float], float]:
    """Run every job once; checks run after the timing.

    A calibration round runs before every job and after the last one,
    outside the timing, and each job's time is scaled to the reference
    speed by the rounds on either side of it (see ``calibration``).
    Returns the scaled job times and the pass's overall scale factor.
    """
    gc.collect()
    times, outputs = [], []
    rounds = [calibration.round_seconds()]
    with tracer.active() if tracer is not None else nullcontext():
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a job that raises is a failed job, not a crash
                out = exc
            times.append(time.perf_counter() - t0)
            outputs.append(out)
            rounds.append(calibration.round_seconds())
    book.check(jobs, outputs, backends)
    scaled = [2 * calibration.NOMINAL_S * t / (rounds[k] + rounds[k + 1]) for k, t in enumerate(times)]
    return scaled, sum(scaled) / sum(times)


def _until(deadline: float, least: int):
    """Yield pass numbers while another pass is expected to end by ``deadline``,
    and at least ``least`` times."""
    spent: list[float] = []
    while len(spent) < least or time.perf_counter() + statistics.median(spent) <= deadline:
        t0 = time.perf_counter()
        yield len(spent)
        spent.append(time.perf_counter() - t0)


def end_to_end(jobs, book: Book, deadline: float) -> tuple[dict[str, float], list[list[float]], list[float]]:
    """Timed passes until ``deadline`` (at least MIN_PASSES).

    Returns the metrics, each pass's scaled job times, and each pass's
    unscaled wall time.
    """
    passes: list[list[float]] = []
    raw: list[float] = []
    for _ in _until(deadline, MIN_PASSES):
        times, scale = run_pass(jobs, book)
        passes.append(times)
        raw.append(sum(times) / scale)
    metrics = {
        "wall_s": statistics.median(sum(p) for p in passes),
        "job_max_s": statistics.median(max(p) for p in passes),
        "peak_rss_mib": tracing.peak_rss_bytes() / 2**20,
    }
    return metrics, passes, raw


def per_layer(jobs, book: Book, deadline: float) -> dict[str, float]:
    """Untraced and traced passes in turn until ``deadline``."""
    plain: list[float] = []
    traced: list[dict[str, float]] = []
    for _ in _until(deadline, MIN_TRACED_PAIRS):
        plain.append(sum(run_pass(jobs, book)[0]))
        tracer = tracing.Tracer()
        times, scale = run_pass(jobs, book, tracer)
        traced.append({"trace.wall_s": sum(times), **tracer.span_metrics(scale, sum(times))})
    metrics = {
        name: statistics.median(t.get(name, 0.0) for t in traced)
        for name in set().union(*traced)
    }
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(plain) - 1
    metrics.update(tracer.count_metrics())
    enum_s = metrics.get("latticeenum.enumerate_lengths.s", 0.0)
    metrics["latticeenum.points_per_s"] = metrics["latticeenum.points"] / enum_s if enum_s else 0.0
    metrics.update(code_size(ROOT / "src" / "coordlat"))
    return metrics


def code_size(pkg: Path) -> dict[str, int]:
    """Lines per layer of hand-written source, and of generated C++."""
    sizes: dict[str, int] = defaultdict(int)
    for f in sorted(pkg.rglob("*")):
        if f.suffix not in (".py", ".pyx", ".pxd", ".cpp") or "__pycache__" in f.parts:
            continue
        lines = f.read_bytes().count(b"\n")
        if f.suffix == ".cpp":
            sizes["loc.generated"] += lines
            continue
        rel = f.relative_to(pkg).parts
        layer = "package" if rel == ("__init__.py",) else Path(rel[0]).stem
        sizes[f"{layer}.loc"] += lines
        sizes["loc.total"] += lines
    return sizes


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(threads_was: str | None) -> dict:
    import coordlat

    native = getattr(coordlat, "native_available", None)
    return {
        "python": platform.python_version(),
        "native_available": bool(native and native()),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "COORDLAT_THREADS": f"removed (was {threads_was!r})" if threads_was is not None else "unset",
    }


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_was = os.environ.pop("COORDLAT_THREADS", None)
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0
    try:
        import_program()
        from perfbench import workloads

        jobs = workloads.build(args.workload, args.seed, args.size)
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    except (ImportError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    env = environment(threads_was)
    print("env " + json.dumps(env))
    book = Book()
    deadline = time.perf_counter() + args.seconds
    # warm-up and check pass; in a traced run it also measures the census's
    # memory, which needs the first pass: the peak RSS only ever rises
    with tracing.enumerate_rss_rise() if args.trace else nullcontext([0]) as rise:
        run_pass(jobs, book, backends=env["native_available"])
    if args.trace:
        metrics = per_layer(jobs, book, deadline)
        metrics["latticeenum.enumerate_lengths.peak_mib"] = rise[0] / 2**20
        catalogue = PER_LAYER
        for layer in tracing.LAYERS:
            print(f"layer {layer}: {metrics.get(f'{layer}.share', 0.0):.1%} of the traced wall time")
        print(f"trace overhead: {metrics['trace.overhead_frac']:+.1%}")
    else:
        metrics, passes, raw = end_to_end(jobs, book, deadline)
        metrics["setup_s"] = setup_s
        catalogue = END_TO_END
        for k, job in enumerate(jobs):
            print(f"job {job.name}: median {statistics.median(p[k] for p in passes):.4f} s")
        print(f"passes: {len(passes)}, raw wall time per pass {[round(w, 4) for w in raw]} s")
    metrics["ok_frac"] = 1 - book.failed / book.attempted
    for reason in book.reasons:
        print(f"FAILED {reason}")
    result = {
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in catalogue.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
