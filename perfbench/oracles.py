"""Expected answers that do not come from the code under test.

The closed forms and the exceptional coordinator polynomials below are
written out again from the literature with ``math.comb``, so a census or
a root location is checked against an answer the package did not
compute.  Sources: Conway & Sloane, "Low-dimensional lattices VII:
coordination sequences", Proc. R. Soc. A 453 (1997), for the A, B, C, D
closed forms and the E-series; Baake & Grimm, Z. Kristallogr. 212
(1997), for the coordination sequences of the root lattices.  As a
check on the transcription, each exceptional polynomial's linear
coefficient plus the rank is the number of roots, S(1): 12, 48, 72, 126
and 240.

Every CLI job's stdout is also pinned by a SHA-256 digest recorded at
the commit that introduced the benchmark (``digests.json``), so an
answer that no closed form pins (type B root counts, for example) still
cannot change unnoticed.
"""
from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path

# h(x) coefficients, low degree first
EXCEPTIONAL = {
    "G2": (1, 10, 7),
    "F4": (1, 44, 198, 140, 1),
    "E6": (1, 66, 645, 1384, 645, 66, 1),
    "E7": (1, 119, 2037, 8211, 8787, 2037, 119, 1),
    "E8": (1, 232, 7228, 55384, 133510, 107224, 24508, 232, 1),
}
RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}



def closed_form(tag: str, n: int) -> tuple[int, ...]:
    """Coordinator polynomial of A_n, B_n, C_n or D_n (Conway & Sloane)."""
    if tag == "A":
        return tuple(comb(n, k) ** 2 for k in range(n + 1))
    if tag == "C":
        return tuple(comb(2 * n, 2 * k) for k in range(n + 1))
    if tag == "B":
        h = [comb(2 * n + 1, 2 * k) for k in range(n + 1)]
        for k in range(n):
            h[k + 1] -= 2 * n * comb(n - 1, k)
        return tuple(h)
    if tag == "D":
        h = [comb(2 * n, 2 * k) for k in range(n + 1)]
        for k in range(n - 1):
            h[k + 1] -= 2 * n * comb(n - 2, k)
        return tuple(h)
    return EXCEPTIONAL[tag]


def census(tag: str, n: int, K: int) -> tuple[int, ...]:
    """S(0..K): the first K+1 coefficients of h(x) / (1-x)^rank."""
    h = closed_form(tag, n)
    d = RANK.get(tag, n)
    return tuple(
        sum(h[j] * comb(d - 1 + k - j, d - 1) for j in range(min(k, len(h) - 1) + 1))
        for k in range(K + 1)
    )


def sign_at(h: tuple[int, ...], x: Fraction) -> int:
    v = sum(c * x**k for k, c in enumerate(h))
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# checks on CLI stdout; each returns None when the output is right, or a
# one-line reason
# ---------------------------------------------------------------------------


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


@cache
def _digests() -> dict[str, str]:
    return json.loads(Path(__file__).with_name("digests.json").read_text())["stdout_sha256"]


def check_digest(argv: str, stdout: str) -> str | None:
    want = _digests().get(argv)
    if want is None:
        return "no pinned digest"
    return None if digest(stdout) == want else "stdout differs from the pinned digest"


def _fields(stdout: str) -> dict[str, str]:
    return dict(ln.split(":", 1) for ln in stdout.splitlines() if ":" in ln)


def parse_counts(stdout: str) -> list[int]:
    m = re.search(r"^census:\[(.*)\]$", stdout, re.M)
    if m:
        return [int(c) for c in m.group(1).split(",")]
    return [int(c) for c in re.findall(r"^S\(\d+\) = (\d+)$", stdout, re.M)]


def census_check(tag: str, n: int, K: int):
    """verify/enumerate text output: the census equals the closed-form series."""
    want = list(census(tag, n, K))

    def check(stdout: str) -> str | None:
        got = parse_counts(stdout)
        if got != want:
            return f"census {got} != {want}"
        if "\ncensus:[" in stdout and _fields(stdout).get("matched") != "true":
            return "verify did not report matched:true"
        return None

    return check


_INTERVAL = re.compile(r"^(?:interval:|bracket:.* x=)\[(\S+), (\S+)\]$", re.M)


def roots_check(tag: str, n: int):
    """roots text output: every interval (and bracket) brackets a sign change.

    For A, C and D, which are real-rooted, the intervals must number n.
    """
    h = closed_form(tag, n)

    def check(stdout: str) -> str | None:
        pairs = [(Fraction(a), Fraction(b)) for a, b in _INTERVAL.findall(stdout)]
        if not pairs:
            return "no intervals"
        for lo, hi in pairs:
            if not lo < hi or sign_at(h, lo) * sign_at(h, hi) >= 0:
                return f"[{lo}, {hi}] does not bracket a simple root"
        intervals = stdout.count("\ninterval:")
        brackets = stdout.count("\nbracket:")
        if int(_fields(stdout)["distinct_real"]) != intervals:
            return "distinct_real differs from the number of intervals"
        if tag != "B" and intervals != n:
            return f"{intervals} intervals for a real-rooted degree-{n} polynomial"
        if tag == "D" and brackets != n:
            return f"{brackets} brackets, expected {n}"
        return None

    return check


def fields_check(**want: str):
    """analyze text output: the named fields have the given values."""

    def check(stdout: str) -> str | None:
        got = _fields(stdout)
        bad = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
        return f"fields {bad} != {want}" if bad else None

    return check


def real_rooted_fields(n: int, order: int):
    """analyze of a real-rooted degree-n polynomial with positive coefficients.

    Real roots make the coefficients a Polya frequency sequence
    (Aissen-Schoenberg-Whitney), so every positivity check must hold.
    """
    return fields_check(
        degree=str(n), distinct_real=str(n), real_with_multiplicity=str(n),
        real_rooted="true", log_concave="true", unimodal="true",
        no_internal_zeros="true", **{f"pf{order}": "true"},
    )


def report_check(n: int):
    """report table of a real-rooted family: rows 1..n, every verdict true."""

    def check(stdout: str) -> str | None:
        rows = [ln.split() for ln in stdout.splitlines()[1:]]
        if [r[0] for r in rows] != [str(k) for k in range(1, n + 1)]:
            return "report rows are not 1..n"
        for r in rows:
            if r[1:3] != [r[0], r[0]] or r[3:] != ["true"] * 4:
                return f"report row {r} is not real-rooted with every check true"
        return None

    return check
