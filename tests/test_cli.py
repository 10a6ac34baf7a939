"""Command-line behavior: formats, exit codes, file output."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coordlat import cli
from coordlat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_json_exact_bytes(capsys):
    code, out, err = run(capsys, "gen", "--type", "D", "--n", "4", "--format", "json")
    assert code == 0
    assert out == '{"type":"D","n":4,"coeffs":["1","20","54","20","1"]}\n'
    assert err == ""


def test_gen_text_and_csv(capsys):
    code, out, _ = run(capsys, "gen", "--type", "A", "--n", "2")
    assert code == 0
    assert out == "type:A2\ndegree:2\ncoeffs:1 4 1\n"
    code, out, _ = run(capsys, "gen", "--type", "A", "--n", "2", "--format", "csv")
    assert out == "k,h_k\n0,1\n1,4\n2,1\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("report", "--type", "A"), "error: --n is required for report\n"),
        (("report", "--type", "D", "--n", "1"), "error: type D needs n >= 2\n"),
    ],
    ids=["no_n", "D1"],
)
def test_report_rank_checks(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_gen_exceptional_through_recovery(capsys):
    code, out, _ = run(capsys, "gen", "--type", "G2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"type": "G2", "n": 2, "coeffs": ["1", "10", "7"]}


@pytest.mark.parametrize("tag", ["G2", "F4", "E6", "E7", "E8"])
def test_gen_recovery_checks_levels_beyond_the_rank(capsys, monkeypatch, tag):
    from coordlat import cli
    from coordlat.latticeenum import LengthCensus

    real = cli.chamber_lengths

    def corrupted(lt, K, *args, **kw):
        census = real(lt, K, *args, **kw)
        counts = list(census.counts)
        counts[lt.rank + 1] += 2
        return LengthCensus(census.spec, K, counts)

    monkeypatch.setattr(cli, "chamber_lengths", corrupted)
    code, out, err = run(capsys, "gen", "--type", tag)
    assert (code, out) == (2, "")
    assert err == "error: recovered polynomial fails to reproduce the census\n"


def test_gen_recovers_the_e_series_from_the_orbit_count(capsys):
    want = "type:E8\ndegree:8\ncoeffs:1 232 7228 55384 133510 107224 24508 232 1\n"
    assert run(capsys, "gen", "--type", "E8") == (0, want, "")


@pytest.mark.parametrize(
    "argv",
    [("gen", "--type", "E8"), ("analyze", "--type", "E7"), ("roots", "--type", "E6"),
     ("report", "--type", "A", "--n", "3")],
    ids=["gen", "analyze", "roots", "report"],
)
def test_only_the_census_subcommands_take_the_e_series_opt_in(capsys, argv):
    code, out, err = run(capsys, *argv, "--allow-expensive")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --allow-expensive\n")


@pytest.mark.parametrize("tag", ["E6", "E7", "E8"])
def test_analyze_and_roots_finish_on_the_e_series(capsys, tag):
    code, out, err = run(capsys, "analyze", "--type", tag)
    assert (code, err) == (0, "")
    assert "log_concave:true" in out.splitlines()
    code, out, err = run(capsys, "roots", "--type", tag)
    assert (code, err) == (0, "")
    assert out.startswith(f"type:{tag}\ndistinct_real:")


def test_verify_reports_a_closed_form_mismatch(capsys, corrupt_census):
    corrupt_census(4)
    code, out, err = run(capsys, "verify", "--type", "B", "--n", "3", "--K", "5")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "matched:false" in lines
    assert "first_mismatch:k=4 expected=306 got=308" in lines
    assert "detail:series mismatch at k=4" in lines
    assert not any(ln.startswith("recovered:") for ln in lines)


def test_analyze_text_fields(capsys):
    code, out, _ = run(capsys, "analyze", "--type", "B", "--n", "16")
    assert code == 0
    lines = out.splitlines()
    assert "real_rooted:false" in lines
    assert "distinct_real:14" in lines
    assert "log_concave:true" in lines


def test_analyze_expectation_failure_exits_one(capsys):
    code, out, _ = run(
        capsys, "analyze", "--type", "B", "--n", "16", "--expect", "real-rooted"
    )
    assert code == 1
    assert "expect_failed:real-rooted" in out.splitlines()


def test_analyze_expectation_holds(capsys):
    code, out, _ = run(
        capsys, "analyze", "--type", "A", "--n", "12", "--expect", "real-rooted"
    )
    assert code == 0
    assert "expect_failed" not in out


def analyze_json(capsys, *argv):
    code, out, err = run(capsys, "analyze", *argv, "--format", "json")
    assert (code, err) == (0, "")
    return json.loads(out)


# the real-rooted polynomials: A/C/D at every rank, B up to rank 15
REAL_ROOTED_RANKS = {
    "A": range(1, 21), "B": range(1, 16), "C": range(1, 21), "D": range(2, 21),
    "G2": [None], "F4": [None],
}


@pytest.mark.parametrize("tag", list(REAL_ROOTED_RANKS))
def test_real_rooted_analyze_evaluates_no_minors(capsys, minor_calls, tag):
    for n in REAL_ROOTED_RANKS[tag]:
        rank = [] if n is None else ["--n", str(n)]
        got = analyze_json(capsys, "--type", tag, *rank)
        assert got["real_rooted"] and got["pf"]["holds"], (tag, n)
    assert minor_calls == []


@pytest.mark.parametrize("n", [16, 20])
def test_complex_roots_get_the_minor_scan(capsys, minor_calls, n):
    from coordlat import LatticeType, coordinator
    from coordlat.seqanalysis import pf_minor_check

    got = analyze_json(capsys, "--type", "B", "--n", str(n))
    assert not got["real_rooted"]
    assert "_first_negative_minor" in minor_calls
    want = pf_minor_check(coordinator(LatticeType("B", n)).poly.coeffs, 3)
    assert got["pf"] == {"order": 3, "holds": want.holds, "clamped": want.clamped}


EXPECT_PF = (
    [(f"--type A --n 1 --max-order {k}", k, k > 2) for k in range(1, 5)]
    + [(f"--type G2 --max-order {k}", k, k > 3) for k in range(1, 7)]
    + [(f"--type B --n {n} --max-order 3", 3, False) for n in (15, 16, 20)]
)


@pytest.mark.parametrize(
    "argv,order,clamped",
    EXPECT_PF,
    ids=[a.replace("--", "").replace(" ", "-") for a, *_ in EXPECT_PF],
)
def test_expect_pf_exit_codes(capsys, argv, order, clamped):
    got = analyze_json(capsys, *argv.split(), "--expect", "pf")
    assert got["pf"] == {"order": order, "holds": True, "clamped": clamped}


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--type", "D", "--n", "5", "--format", "json")
    obj = json.loads(out)
    assert obj["real_rooted"] is True
    assert obj["degree"] == 5
    assert obj["pf"]["holds"] is True


def test_analyze_prints_every_witness(capsys, monkeypatch):
    # 3 + x + 3x^2 fails log-concavity, unimodality and order 2
    from coordlat.exactpoly import poly

    monkeypatch.setattr(cli, "_poly_for", lambda lt: poly([3, 1, 3]))
    argv = ("analyze", "--type", "A", "--n", "2", "--expect", "log-concave")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines()[-4:] == [
        "log_concave_witness:index=1 left=3 center=1 right=3",
        "unimodal_witness:descent=0 ascent=1",
        "pf_witness:rows=(1, 2) cols=(0, 1) det=-8",
        "expect_failed:log-concave",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    # JSON carries no unimodal witness
    assert out == (
        '{"type":"A","n":2,"degree":2,"distinct_real":0,"real_with_multiplicity":0,'
        '"real_rooted":false,"log_concave":false,"unimodal":false,"no_internal_zeros":true,'
        '"pf":{"order":3,"holds":false,"clamped":false},'
        '"log_concave_witness":{"index":1,"left":"3","center":"1","right":"3"},'
        '"pf_witness":{"rows":[1,2],"cols":[0,1],"determinant":"-8"},'
        '"expect_failed":"log-concave"}\n'
    )
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 1
    assert out.splitlines()[1] == "A,2,2,0,false,false,false,false"


def test_analyze_prints_an_order_three_witness(capsys, monkeypatch):
    from coordlat.exactpoly import poly

    monkeypatch.setattr(cli, "_poly_for", lambda lt: poly([1, 1, 1, 1]))
    code, out, _ = run(capsys, "analyze", "--type", "A", "--n", "2", "--max-order", "3")
    assert code == 0
    assert out.splitlines()[-1] == "pf_witness:rows=(1, 2, 4) cols=(0, 1, 2) det=-1"


def test_roots_type_d_shows_brackets(capsys):
    code, out, _ = run(capsys, "roots", "--type", "D", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type:D3"
    assert lines[1] == "distinct_real:3"
    assert sum(1 for l in lines if l.startswith("interval:")) == 3
    assert sum(1 for l in lines if l.startswith("bracket:j=")) == 3


def test_roots_rank_two_has_intervals_only(capsys):
    code, out, _ = run(capsys, "roots", "--type", "D", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("interval:")) == 1
    assert not any(l.startswith("bracket:") for l in lines)


def test_roots_json_interval_width(capsys):
    from fractions import Fraction

    code, out, _ = run(
        capsys, "roots", "--type", "A", "--n", "2", "--format", "json",
        "--width", "1/4096",
    )
    obj = json.loads(out)
    assert len(obj["intervals"]) == 2
    for lo, hi in obj["intervals"]:
        assert Fraction(hi) - Fraction(lo) <= Fraction(1, 4096)


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "A", "--n", "2", "--K", "3", "--format", "csv")
    assert code == 0
    assert out == "k,S(k)\n0,1\n1,6\n2,12\n3,18\n"


def test_enumerate_json_counts_are_strings(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "G2", "--K", "4", "--format", "json")
    obj = json.loads(out)
    assert obj == {"type": "G2", "n": 2, "K": 4, "counts": ["1", "12", "30", "48", "66"]}


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A", "--n", "2", "--K", "3")
    assert code == 0
    lines = out.splitlines()
    assert "census:[1, 6, 12, 18]" in lines
    assert "matched:true" in lines
    assert "legendre_identity:true" in lines


def test_verify_exceptional(capsys):
    code, out, _ = run(capsys, "verify", "--type", "F4", "--K", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["matched"] is True
    assert obj["recovered"] == ["1", "44", "198", "140", "1"]


def test_report_csv(capsys):
    code, out, _ = run(capsys, "report", "--type", "D", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,degree,distinct_real,real_rooted,log_concave,unimodal,pf3"
    assert lines[1] == "2,2,1,true,true,true,true"
    assert lines[-1].startswith("4,4,4,true")


def test_out_writes_identical_bytes(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "gen", "--type", "C", "--n", "3", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    code2, stdout_version, _ = run(capsys, "gen", "--type", "C", "--n", "3", "--format", "json")
    assert target.read_text() == stdout_version


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "gen", "--type", "A")[0] == 2  # missing --n
    assert run(capsys, "gen", "--type", "Q", "--n", "3")[0] == 2
    assert run(capsys, "gen", "--type", "A", "--n", "0")[0] == 2
    assert run(capsys, "enumerate", "--type", "A", "--n", "2")[0] == 2  # missing --K
    assert run(capsys, "roots", "--type", "A", "--n", "2", "--width", "abc")[0] == 2
    assert run(capsys, "roots", "--type", "A", "--n", "2", "--width", "0")[0] == 2
    assert run(capsys, "roots", "--type", "A", "--n", "2", "--width=-1/2")[0] == 2
    assert run(capsys, "gen", "--type", "A", "--n", "2", "--bogus")[0] == 2
    assert run(capsys, "report", "--type", "G2")[0] == 2


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # one parser serves every call of a process, and each call prints
    # what it prints on a freshly built parser
    calls = [
        ("roots", "--type", "A", "--n", "2", "--width", "abc"),
        ("roots", "--type", "D", "--n", "5"),
        ("analyze", "--type", "B", "--n", "16", "--format", "json"),
        ("report", "--type", "C", "--n", "6", "--format", "csv"),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    parser = cli._parser()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert cli._parser() is parser
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0]


def test_expensive_lattice_needs_flag(capsys):
    # the gate guards verify's breadth-first search; with the flag the
    # census runs and only recovery, below the rank, fails
    code, out, err = run(capsys, "verify", "--type", "E6", "--K", "1")
    assert (code, out) == (2, "")
    assert "allow-expensive" in err
    code, out, _ = run(capsys, "verify", "--type", "E6", "--K", "1", "--allow-expensive")
    assert code == 1
    assert "census:[1, 72]" in out.splitlines()
    # enumerate counts on orbits, and the flag changes nothing
    census = (0, "type:E6\nS(0) = 1\nS(1) = 72\n", "")
    assert run(capsys, "enumerate", "--type", "E6", "--K", "1") == census
    assert run(capsys, "enumerate", "--type", "E6", "--K", "1", "--allow-expensive") == census


def test_memory_budget_exit(capsys):
    code, _, err = run(capsys, "enumerate", "--type", "D", "--n", "4", "--K", "12", "--memory-budget", "0")
    assert code == 2
    assert "memory budget exceeded" in err


def test_orbit_count_checks_the_memory_budget_and_never_exceeds_it(capsys):
    argv = ("enumerate", "--type", "E6", "--K", "2", "--allow-expensive", "--memory-budget")
    assert run(capsys, *argv, "-5") == (2, "", "error: memory budget must be >= 0 MiB, got -5\n")
    assert run(capsys, *argv, "0") == (0, "type:E6\nS(0) = 1\nS(1) = 72\nS(2) = 1062\n", "")


def test_negative_memory_budget_exit(capsys):
    code, out, err = run(capsys, "enumerate", "--type", "A", "--n", "2", "--K", "3", "--memory-budget", "-5")
    assert (code, out) == (2, "")
    assert err == "error: memory budget must be >= 0 MiB, got -5\n"


def run_child(*argv):
    """A fresh interpreter on argv; it does not see pytest's pythonpath setting, so hand it src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_console_script_subprocess():
    proc = run_child("-m", "coordlat.cli", "gen", "--type", "D", "--n", "4", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == '{"type":"D","n":4,"coeffs":["1","20","54","20","1"]}\n'


def test_import_loads_no_undeclared_dependency():
    # pyproject.toml declares no dependencies, so the package and its CLI
    # must import without numpy or mpmath, even where both are installed
    code = "import sys, coordlat, coordlat.cli; print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Exit code and exact stdout of each subcommand in each format.  The
# benchmark digests pin only text output, so these guard the json and
# csv bytes as well.
EXACT = [
    ('gen --type A --n 2', 'json', 0, '{"type":"A","n":2,"coeffs":["1","4","1"]}\n'),
    ('gen --type A --n 2', 'csv', 0, (
        'k,h_k\n'
        '0,1\n'
        '1,4\n'
        '2,1\n'
    )),
    ('gen --type A --n 2', 'text', 0, (
        'type:A2\n'
        'degree:2\n'
        'coeffs:1 4 1\n'
    )),
    ('gen --type G2', 'json', 0, '{"type":"G2","n":2,"coeffs":["1","10","7"]}\n'),
    ('gen --type G2', 'csv', 0, (
        'k,h_k\n'
        '0,1\n'
        '1,10\n'
        '2,7\n'
    )),
    ('gen --type G2', 'text', 0, (
        'type:G2\n'
        'degree:2\n'
        'coeffs:1 10 7\n'
    )),
    ('analyze --type D --n 5', 'json', 0, (
        '{"type":"D","n":5,"degree":5,"distinct_real":5,'
        '"real_with_multiplicity":5,"real_rooted":true,"log_concave":true,'
        '"unimodal":true,"no_internal_zeros":true,"pf":{"order":3,"holds":true,'
        '"clamped":false}}\n'
    )),
    ('analyze --type D --n 5', 'csv', 0, (
        'type,n,degree,distinct_real,real_rooted,log_concave,unimodal,pf3\n'
        'D,5,5,5,true,true,true,true\n'
    )),
    ('analyze --type D --n 5', 'text', 0, (
        'type:D5\n'
        'degree:5\n'
        'distinct_real:5\n'
        'real_with_multiplicity:5\n'
        'real_rooted:true\n'
        'log_concave:true\n'
        'unimodal:true\n'
        'no_internal_zeros:true\n'
        'pf3:true\n'
    )),
    ('analyze --type B --n 16 --expect real-rooted', 'json', 1, (
        '{"type":"B","n":16,"degree":16,"distinct_real":14,'
        '"real_with_multiplicity":14,"real_rooted":false,"log_concave":true,'
        '"unimodal":true,"no_internal_zeros":true,"pf":{"order":3,"holds":true,'
        '"clamped":false},"expect_failed":"real-rooted"}\n'
    )),
    ('analyze --type B --n 16 --expect real-rooted', 'csv', 1, (
        'type,n,degree,distinct_real,real_rooted,log_concave,unimodal,pf3\n'
        'B,16,16,14,false,true,true,true\n'
    )),
    ('analyze --type B --n 16 --expect real-rooted', 'text', 1, (
        'type:B16\n'
        'degree:16\n'
        'distinct_real:14\n'
        'real_with_multiplicity:14\n'
        'real_rooted:false\n'
        'log_concave:true\n'
        'unimodal:true\n'
        'no_internal_zeros:true\n'
        'pf3:true\n'
        'expect_failed:real-rooted\n'
    )),
    ('roots --type D --n 3', 'json', 0, (
        '{"type":"D","n":3,"intervals":[["-128997/16384","-64493/8192"],'
        '["-8195/8192","-16379/16384"],["-1045/8192","-2079/16384"]],'
        '"brackets":[{"j":0,"phi":["0","1.0471975512"],'
        '"x":["-53876069761261/422212465065984",'
        '"-71468255805757/562949953421312"]},{"j":1,"phi":["1.0471975512",'
        '"2.09439510239"],"x":["-1537/1536","-6143/6144"]},{"j":2,'
        '"phi":["2.09439510239","3.14159265359"],"x":["-64497/8192",'
        '"-32245/4096"]}]}\n'
    )),
    ('roots --type D --n 3', 'csv', 0, (
        'lo,hi\n'
        '-128997/16384,-64493/8192\n'
        '-8195/8192,-16379/16384\n'
        '-1045/8192,-2079/16384\n'
    )),
    ('roots --type D --n 3', 'text', 0, (
        'type:D3\n'
        'distinct_real:3\n'
        'interval:[-128997/16384, -64493/8192]\n'
        'interval:[-8195/8192, -16379/16384]\n'
        'interval:[-1045/8192, -2079/16384]\n'
        'bracket:j=0 phi=[0, 1.0471975512] x=[-53876069761261/422212465065984, '
        '-71468255805757/562949953421312]\n'
        'bracket:j=1 phi=[1.0471975512, 2.09439510239] x=[-1537/1536, '
        '-6143/6144]\n'
        'bracket:j=2 phi=[2.09439510239, 3.14159265359] x=[-64497/8192, '
        '-32245/4096]\n'
    )),
    ('roots --type D --n 2', 'json', 0, (
        '{"type":"D","n":2,"intervals":[["-2049/2048","-4095/4096"]],'
        '"brackets":[]}\n'
    )),
    ('roots --type D --n 2', 'csv', 0, (
        'lo,hi\n'
        '-2049/2048,-4095/4096\n'
    )),
    ('roots --type D --n 2', 'text', 0, (
        'type:D2\n'
        'distinct_real:1\n'
        'interval:[-2049/2048, -4095/4096]\n'
    )),
    ('enumerate --type G2 --K 4', 'json', 0, (
        '{"type":"G2","n":2,"K":4,"counts":["1","12","30","48","66"]}\n'
    )),
    ('enumerate --type G2 --K 4', 'csv', 0, (
        'k,S(k)\n'
        '0,1\n'
        '1,12\n'
        '2,30\n'
        '3,48\n'
        '4,66\n'
    )),
    ('enumerate --type G2 --K 4', 'text', 0, (
        'type:G2\n'
        'S(0) = 1\n'
        'S(1) = 12\n'
        'S(2) = 30\n'
        'S(3) = 48\n'
        'S(4) = 66\n'
    )),
    ('verify --type A --n 2 --K 3', 'json', 0, (
        '{"type":"A","n":2,"K":3,"counts":["1","6","12","18"],"matched":true,'
        '"closed_form":["1","4","1"],"recovered":["1","4","1"],'
        '"legendre_identity":true}\n'
    )),
    ('verify --type A --n 2 --K 3', 'csv', 0, (
        'k,S(k)\n'
        '0,1\n'
        '1,6\n'
        '2,12\n'
        '3,18\n'
    )),
    ('verify --type A --n 2 --K 3', 'text', 0, (
        'type:A2\n'
        'K:3\n'
        'census:[1, 6, 12, 18]\n'
        'matched:true\n'
        'closed_form:1 4 1\n'
        'recovered:1 4 1\n'
        'legendre_identity:true\n'
    )),
    ('verify --type F4 --K 4', 'json', 0, (
        '{"type":"F4","n":4,"K":4,"counts":["1","48","384","1392","3456"],'
        '"matched":true,"recovered":["1","44","198","140","1"]}\n'
    )),
    ('verify --type F4 --K 4', 'csv', 0, (
        'k,S(k)\n'
        '0,1\n'
        '1,48\n'
        '2,384\n'
        '3,1392\n'
        '4,3456\n'
    )),
    ('verify --type F4 --K 4', 'text', 0, (
        'type:F4\n'
        'K:4\n'
        'census:[1, 48, 384, 1392, 3456]\n'
        'matched:true\n'
        'recovered:1 44 198 140 1\n'
    )),
    ('verify --type G2 --K 1', 'json', 1, (
        '{"type":"G2","n":2,"K":1,"counts":["1","12"],"matched":false,'
        '"detail":"census depth 1 is below the rank 2"}\n'
    )),
    ('verify --type G2 --K 1', 'csv', 1, (
        'k,S(k)\n'
        '0,1\n'
        '1,12\n'
    )),
    ('verify --type G2 --K 1', 'text', 1, (
        'type:G2\n'
        'K:1\n'
        'census:[1, 12]\n'
        'matched:false\n'
        'detail:census depth 1 is below the rank 2\n'
    )),
    ('report --type D --n 4', 'json', 0, (
        '{"type":"D","rows":[{"n":2,"degree":2,"distinct_real":1,'
        '"real_rooted":true,"log_concave":true,"unimodal":true,"pf3":true},'
        '{"n":3,"degree":3,"distinct_real":3,"real_rooted":true,'
        '"log_concave":true,"unimodal":true,"pf3":true},{"n":4,"degree":4,'
        '"distinct_real":4,"real_rooted":true,"log_concave":true,"unimodal":true,'
        '"pf3":true}]}\n'
    )),
    ('report --type D --n 4', 'csv', 0, (
        'n,degree,distinct_real,real_rooted,log_concave,unimodal,pf3\n'
        '2,2,1,true,true,true,true\n'
        '3,3,3,true,true,true,true\n'
        '4,4,4,true,true,true,true\n'
    )),
    ('report --type D --n 4', 'text', 0, (
        'n  degree  distinct_real  real_rooted  log_concave  unimodal  pf3\n'
        '2  2       1              true         true         true      true\n'
        '3  3       3              true         true         true      true\n'
        '4  4       4              true         true         true      true\n'
    )),
]



@pytest.mark.parametrize(
    "argv,fmt,code,want",
    EXACT,
    ids=[f"{a.replace(' --', ' ').replace(' ', '-')}-{f}" for a, f, *_ in EXACT],
)
def test_exact_bytes(capsys, argv, fmt, code, want):
    assert run(capsys, *argv.split(), "--format", fmt) == (code, want, "")
