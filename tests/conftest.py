"""Shared fixtures: a collector for the acceptance criterion verdicts, a
spy on the Toeplitz-minor evaluators, and a corrupted census."""
import pytest

_criterion_lines: list[tuple[int, str]] = []


@pytest.fixture
def criterion_log():
    """Record one pass/fail line per acceptance criterion.

    The lines are echoed in the terminal summary so they stay visible
    even though pytest captures test stdout.
    """

    def record(number: int, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        line = f"CRITERION {number}: {verdict} ({detail})"
        _criterion_lines.append((number, line))
        print(line)

    return record


@pytest.fixture
def minor_calls(monkeypatch):
    """Names of the seqanalysis minor evaluators called during the test.

    Every path of pf_minor_check that evaluates a minor of order 2 or
    more starts with the log-concavity test, so an empty list means no
    minor was evaluated.
    """
    from coordlat import seqanalysis

    calls = []
    for name in ("_pf2_by_log_concavity", "_first_negative_minor"):
        real = getattr(seqanalysis, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(seqanalysis, name, spy)
    return calls


@pytest.fixture
def corrupt_census(monkeypatch):
    """Call with a level: each census oracle_verify takes then reads 2 more there."""
    from coordlat import latticeenum

    real = latticeenum.enumerate_lengths

    def corrupt(level):
        def corrupted(spec, K, **kw):
            counts = list(real(spec, K, **kw).counts)
            counts[level] += 2
            return latticeenum.LengthCensus(spec, K, counts)

        monkeypatch.setattr(latticeenum, "enumerate_lengths", corrupted)

    return corrupt


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_criterion_lines):
        terminalreporter.write_line(line)
