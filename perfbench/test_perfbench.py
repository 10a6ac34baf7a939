"""Tests of the benchmark itself: smoke sizes, oracles, seeding, tracing."""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run

run.import_program()

import coordlat.cli  # noqa: E402
from coordlat import LatticeType, lattice_spec  # noqa: E402
from perfbench import oracles, tracing, workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_size_runs_in_about_a_second_and_passes(workload):
    jobs = workloads.build(workload, seed=3, size="smoke")
    book = run.Book()
    t0 = time.perf_counter()
    run.run_pass(jobs, book, backends=True)
    assert time.perf_counter() - t0 < 5
    assert (book.attempted, book.failed) == (len(jobs), 0), book.reasons


def _job(workload, name):
    return next(j for j in workloads.build(workload, 0, "smoke") if j.name == name)


def test_flipped_census_entry_is_a_failure():
    job = _job("census", "enumerate --type E6 --K 2 --allow-expensive")
    res = job.run()
    assert job.check(res) is None
    bad = workloads.CliRun(0, res.stdout.replace("S(2) = 1062", "S(2) = 1064"), "")
    assert job.check(bad) is not None
    # the closed-form oracle catches it on its own, not only the digest
    assert oracles.census_check("E6", 6, 2)(bad.stdout) is not None
    book = run.Book()
    book.check([job, job], [res, bad])
    assert (book.attempted, book.failed) == (2, 1)


def test_verify_must_report_matched():
    job = _job("census", "verify --type D --n 4 --K 5")
    res = job.run()
    tampered = res.stdout.replace("matched:true", "matched:false")
    assert oracles.census_check("D", 4, 5)(res.stdout) is None
    assert oracles.census_check("D", 4, 5)(tampered) is not None


def test_wrong_distinct_real_is_a_failure():
    roots = _job("roots", "roots --type D --n 12")
    res = roots.run()
    assert roots.check(res) is None
    bad = res.stdout.replace("distinct_real:12", "distinct_real:11")
    assert oracles.roots_check("D", 12)(bad) is not None
    analyze = _job("roots", "analyze --type D --n 24 --max-order 2")
    out = analyze.run().stdout.replace("distinct_real:24", "distinct_real:23")
    assert oracles.real_rooted_fields(24, 2)(out) is not None


def test_interval_without_a_sign_change_is_a_failure():
    res = _job("roots", "roots --type A --n 12").run()
    first, second = res.stdout.splitlines()[2:4]
    # the gap between two isolating intervals holds no root
    gap = f"interval:[{first.split(', ')[1][:-1]}, {second.split('[')[1].split(',')[0]}]"
    bad = res.stdout.replace(first, gap)
    assert oracles.roots_check("A", 12)(bad) is not None


def test_nonzero_exit_and_exceptions_are_failures():
    job = _job("report", "report --type A --n 10")
    book = run.Book()
    book.check([job, job], [workloads.CliRun(2, "", "error: boom"), RuntimeError("boom")])
    assert book.failed == 2


def test_seed_changes_skew_tables_not_verdicts():
    a = workloads.build("census_skew", seed=1, size="smoke")
    b = workloads.build("census_skew", seed=2, size="smoke")
    assert {j.inputs for j in a} != {j.inputs for j in b}
    assert {j.name for j in a} == {j.name for j in b}
    for jobs in (a, b):
        book = run.Book()
        run.run_pass(jobs, book)
        assert book.failed == 0, book.reasons
    assert [j.inputs for j in workloads.build("census_skew", 1, "smoke")] == [j.inputs for j in a]


def test_skewed_table_is_a_unimodular_image():
    base = lattice_spec(LatticeType("B", 4))
    gens = workloads.skewed_table(random.Random(5), base.ambient_dim, base.generators)
    assert 4 <= max(abs(c) for g in gens for c in g) <= 6
    assert len(set(gens)) == len(base.generators)


def test_tracer_records_nested_spans_and_restores_bindings():
    original = coordlat.cli.is_real_rooted
    tracer = tracing.Tracer()
    with tracer.active():
        assert coordlat.cli.is_real_rooted is not original
        workloads.run_cli(("analyze", "--type", "D", "--n", "8"))
    assert coordlat.cli.is_real_rooted is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][1] is None
    sqf = names.index("exactpoly.squarefree_decomposition")
    assert names[tracer.spans[sqf][1]] == "realroots.is_real_rooted"
    m = tracer.span_metrics(scale=1.0, wall=1.0)
    assert 0 <= m["cli.main.self_s"] <= m["cli.main.s"]
    assert m["realroots.is_real_rooted.self_s"] < m["realroots.is_real_rooted.s"]
    counts = tracer.count_metrics()
    assert counts["realroots.chain_len"] > 0 and counts["realroots.chain_max_bits"] > 0


def test_enumerate_rss_rise_is_recorded():
    snippet = (
        "from perfbench import run, tracing; run.import_program(); from perfbench import workloads\n"
        "with tracing.enumerate_rss_rise() as rise:\n"
        "    workloads.run_cli(('enumerate', '--type', 'D', '--n', '4', '--K', '9'))\n"
        "print(rise[0])"
    )
    out = subprocess.run(
        [sys.executable, "-c", snippet], cwd=BENCH.parent, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert int(out.stdout) > 2**20


def test_catalogue_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_code_size_counts_every_layer():
    sizes = run.code_size(BENCH.parent / "src" / "coordlat")
    layers = [k for k in run.PER_LAYER if k.endswith(".loc")]
    assert sum(sizes[k] for k in layers) == sizes["loc.total"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_one_result_line(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "report", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
