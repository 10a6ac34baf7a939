"""Command-line front end.

Subcommands: gen (print a coordinator polynomial), analyze (root and
coefficient diagnostics), roots (isolating intervals, plus trig
brackets for type D), enumerate (word-length census), verify
(breadth-first census against the closed form or the orbit count),
report (batch table over n).

Exit codes: 0 success / property holds, 1 a checked property failed
(witness printed), 2 usage or input error.  All diagnostics go to
stderr; results go to stdout or --out.

Each subcommand returns its output text and exit code.  A result is a
record, an ordered list of (key, value) pairs whose values are ready
for JSON, exact numbers already strings.  JSON prints it after the
lattice's type and rank; text prints ``type:<lattice>`` and then one
``key:value`` line per pair, each value made text by ``_cell``.  Every
CSV, and report's aligned text table, comes from ``_table``.  ``main``
alone writes to stdout or --out.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .coordinator import (
    CLOSED_FORM_TAGS,
    EXCEPTIONAL_RANKS,
    MIN_RANK,
    LatticeType,
    coordinator,
    legendre_identity_check,
)
from .exactpoly import Polynomial
from .latticeenum import (
    MemoryBudgetExceeded,
    _budget_bytes,
    chamber_lengths,
    enumerate_lengths,
    lattice_spec,
    oracle_verify,
    recover_coordinator,
)
from .realroots import (
    BracketingError,
    d_type_brackets,
    is_real_rooted,
    isolate_real_roots,
    refine_bracket,
)
from .seqanalysis import (
    check_log_concave,
    check_no_internal_zeros,
    check_unimodal,
    pf_minor_check,
)

_TYPE_CHOICES = list(CLOSED_FORM_TAGS) + sorted(EXCEPTIONAL_RANKS)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _numstr(x) -> str:
    """Text of an int or a Fraction: integers print without a denominator."""
    return str(x.numerator) if x.denominator == 1 else str(x)


def _f12(x: float) -> str:
    return f"{x:.12g}"


def _cell(v) -> str:
    """Text of one record value: true/false, space-joined lists, k=v pairs."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return " ".join(_cell(x) for x in v)
    if isinstance(v, dict):
        return " ".join(f"{k}={_cell(x)}" for k, x in v.items())
    return str(v)


def _ends(iv) -> list[str]:
    return [_numstr(iv.lo), _numstr(iv.hi)]


def _bracketed(xs) -> str:
    return "[" + ", ".join(str(x) for x in xs) + "]"


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _render(fmt: str, lt: LatticeType, record: list) -> str:
    """A record as one JSON line, or as type and key:value text lines."""
    if fmt == "json":
        return _json_line({"type": lt.tag, "n": lt.rank, **dict(record)})
    return "".join(f"{k}:{_cell(v)}\n" for k, v in [("type", lt), *record])


def _table(cols, rows, pad: bool = False) -> str:
    """Rows under a header as CSV, or with pad as a space-aligned text table."""
    cells = [list(cols)] + [[_cell(v) for v in row] for row in rows]
    if not pad:
        return "".join(",".join(row) + "\n" for row in cells)
    widths = [max(len(row[i]) for row in cells) for i in range(len(cols))]
    return "".join(
        "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n"
        for row in cells
    )


def _ltype(args) -> LatticeType:
    tag = args.type
    n = getattr(args, "n", None)
    if tag in CLOSED_FORM_TAGS:
        if n is None:
            raise ValueError(f"--n is required for type {tag}")
        return LatticeType(tag, n)
    return LatticeType(tag, n) if n is not None else LatticeType(tag)


def _poly_for(lt: LatticeType) -> Polynomial:
    """Coordinator polynomial: closed form, or recovery from a census.

    The exceptional types, E8 too, are counted on Weyl-group orbits to
    K = rank + 2 with no opt-in, so the recovery's re-expansion checks
    two levels it was not built from.
    """
    if lt.tag in CLOSED_FORM_TAGS:
        return coordinator(lt).poly
    return recover_coordinator(chamber_lengths(lt, lt.rank + 2))


def _cmd_gen(args) -> tuple[str, int]:
    lt = _ltype(args)
    h = _poly_for(lt)
    coeffs = [_numstr(c) for c in h.coeffs]
    if args.format == "csv":
        return _table(("k", "h_k"), enumerate(coeffs)), 0
    record = [("coeffs", coeffs)]
    if args.format == "text":
        record.insert(0, ("degree", h.degree))
    return _render(args.format, lt, record), 0


_EXPECT_KEYS = ("real-rooted", "log-concave", "unimodal", "pf")
# the verdicts analyze's CSV and report's table show, before pf<order>
_TABLE_COLS = ("degree", "distinct_real", "real_rooted", "log_concave", "unimodal")


def _verdicts(h: Polynomial, order: int) -> tuple:
    """The verdicts analyze and report share, and the reports with their witnesses.

    The record holds them in analyze's print order and ends with the
    ``pf<order>`` verdict.  A real-rooted h with nonnegative coefficients
    is PF at every order (Aissen-Schoenberg-Whitney), so the exact
    real-root certificate is passed on and ``pf_minor_check`` then
    evaluates no minors; any other h gets the minor scan and its witness.
    """
    rr = is_real_rooted(h)
    lc = check_log_concave(h.coeffs)
    um = check_unimodal(h.coeffs)
    pf = pf_minor_check(h.coeffs, order, real_rooted=rr.is_real_rooted)
    record = [
        ("degree", rr.degree),
        ("distinct_real", rr.distinct_real),
        ("real_with_multiplicity", rr.real_with_multiplicity),
        ("real_rooted", rr.is_real_rooted),
        ("log_concave", lc.holds),
        ("unimodal", um.holds),
        (f"pf{order}", pf.holds),
    ]
    return record, lc, um, pf


def _table_row(record: list) -> list:
    """The ``_TABLE_COLS`` values of a ``_verdicts`` record, then its pf verdict."""
    v = dict(record)
    return [v[c] for c in _TABLE_COLS] + [record[-1][1]]


def _cmd_analyze(args) -> tuple[str, int]:
    lt = _ltype(args)
    order = args.max_order
    h = _poly_for(lt)
    record, lc, um, pf = _verdicts(h, order)
    held = {
        "real-rooted": dict(record)["real_rooted"],
        "log-concave": lc.holds,
        "unimodal": um.holds,
        "pf": pf.holds,
    }
    failed = args.expect if args.expect and not held[args.expect] else None
    code = 1 if failed else 0
    if args.format == "csv":
        cols = ("type", "n", *_TABLE_COLS, f"pf{order}")
        return _table(cols, [[lt.tag, lt.rank, *_table_row(record)]]), code
    # analyze alone shows this verdict, just before the pf one
    record.insert(-1, ("no_internal_zeros", check_no_internal_zeros(h.coeffs).holds))
    as_json = args.format == "json"
    if as_json:
        record[-1] = ("pf", {"order": order, "holds": pf.holds, "clamped": pf.clamped})
    if lc.witness:
        w = lc.witness
        witness = {
            "index": w.index,
            "left": _numstr(w.left),
            "center": _numstr(w.center),
            "right": _numstr(w.right),
        }
        record.append(("log_concave_witness", witness))
    if um.witness and not as_json:
        w = um.witness
        witness = {"descent": w.descent_index, "ascent": w.ascent_index}
        record.append(("unimodal_witness", witness))
    if pf.witness:
        w = pf.witness
        det = _numstr(w.determinant)
        if as_json:
            witness = {"rows": list(w.rows), "cols": list(w.cols), "determinant": det}
        else:
            witness = f"rows={w.rows} cols={w.cols} det={det}"
        record.append(("pf_witness", witness))
    if failed:
        record.append(("expect_failed", failed))
    return _render(args.format, lt, record), code


def _cmd_roots(args) -> tuple[str, int]:
    lt = _ltype(args)
    h = _poly_for(lt)
    intervals = [_ends(iv) for iv in isolate_real_roots(h, args.width)]
    brackets = []
    if lt.tag == "D" and lt.rank >= 3:
        for b in d_type_brackets(lt.rank):
            x = _ends(refine_bracket(b, h, args.width))
            brackets.append({"j": b.j, "phi": [_f12(b.phi_lo), _f12(b.phi_hi)], "x": x})
    if args.format == "csv":
        return _table(("lo", "hi"), intervals), 0
    if args.format == "json":
        return _render("json", lt, [("intervals", intervals), ("brackets", brackets)]), 0
    record = [("distinct_real", len(intervals))]
    record += [("interval", _bracketed(iv)) for iv in intervals]
    record += [
        ("bracket", {"j": b["j"], "phi": _bracketed(b["phi"]), "x": _bracketed(b["x"])})
        for b in brackets
    ]
    return _render("text", lt, record), 0


def _cmd_enumerate(args) -> tuple[str, int]:
    lt = _ltype(args)
    if lt.tag in CLOSED_FORM_TAGS:
        census = enumerate_lengths(lattice_spec(lt), args.K, memory_budget_mib=args.memory_budget)
    else:
        # the orbit count keeps no points, so the budget is only checked
        _budget_bytes(args.K, args.memory_budget)
        census = chamber_lengths(lt, args.K)
    if args.format == "csv":
        return _table(("k", "S(k)"), enumerate(census.counts)), 0
    if args.format == "json":
        counts = [str(c) for c in census.counts]
        return _render("json", lt, [("K", census.K), ("counts", counts)]), 0
    lines = "".join(f"S({k}) = {c}\n" for k, c in enumerate(census.counts))
    return f"type:{lt}\n" + lines, 0


def _cmd_verify(args) -> tuple[str, int]:
    lt = _ltype(args)
    rep = oracle_verify(lt, args.K, args.allow_expensive, args.memory_budget)
    legendre = legendre_identity_check(lt.rank) if lt.tag == "A" else None
    code = 0 if rep.matched and legendre is not False else 1
    counts = rep.census.counts
    if args.format == "csv":
        return _table(("k", "S(k)"), enumerate(counts)), code
    record = [
        ("K", rep.K),
        ("counts", [str(c) for c in counts])
        if args.format == "json" else ("census", _bracketed(counts)),
        ("matched", rep.matched),
    ]
    if rep.closed_form is not None:
        record.append(("closed_form", [_numstr(c) for c in rep.closed_form.coeffs]))
    if rep.recovered is not None:
        record.append(("recovered", [_numstr(c) for c in rep.recovered.coeffs]))
    if rep.first_mismatch is not None:
        k, exp, got = rep.first_mismatch
        mismatch = {"k": k, "expected": str(exp), "got": str(got)}
        record.append(("first_mismatch", mismatch))
    if rep.detail:
        record.append(("detail", rep.detail))
    if legendre is not None:
        record.append(("legendre_identity", legendre))
    return _render(args.format, lt, record), code


def _cmd_report(args) -> tuple[str, int]:
    tag = args.type
    if tag not in CLOSED_FORM_TAGS:
        raise ValueError("report ranges over n and needs a type in A/B/C/D")
    if args.n is None:
        raise ValueError("--n is required for report")
    lo = MIN_RANK[tag]
    ns = range(lo, args.n + 1)
    if not ns:
        raise ValueError(f"type {tag} needs n >= {lo}")
    cols = ("n", *_TABLE_COLS, "pf3")
    rows = []
    for n in ns:
        record = _verdicts(coordinator(LatticeType(tag, n)).poly, 3)[0]
        rows.append([n, *_table_row(record)])
    if args.format == "json":
        return _json_line({"type": tag, "rows": [dict(zip(cols, r)) for r in rows]}), 0
    return _table(cols, rows, pad=args.format == "text"), 0


def _add_common(sp) -> None:
    sp.add_argument("--type", required=True, choices=_TYPE_CHOICES)
    sp.add_argument("--n", type=int)
    sp.add_argument("--format", choices=["json", "csv", "text"], default="text")
    sp.add_argument("--out", default=None)


def _add_census(sp) -> None:
    """enumerate's and verify's options; only verify's search of E6-E8 needs the opt-in."""
    sp.add_argument("--allow-expensive", action="store_true")
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--memory-budget", type=int, default=None, metavar="MiB")


# built once per process: parse_args keeps no state in the parser
@cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coordlat",
        description="Coordinator polynomials of root lattices: exact "
        "construction, root location, and brute-force cross-checks.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("gen", help="print a coordinator polynomial")
    _add_common(sp)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("analyze", help="root and coefficient diagnostics")
    _add_common(sp)
    sp.add_argument("--max-order", type=int, default=3)
    sp.add_argument("--expect", choices=_EXPECT_KEYS, default=None)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("roots", help="isolating intervals and trig brackets")
    _add_common(sp)
    sp.add_argument("--width", type=_rational, default=Fraction(1, 1024))
    sp.set_defaults(func=_cmd_roots)

    sp = sub.add_parser("enumerate", help="word-length census")
    _add_common(sp)
    _add_census(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("verify", help="census against the closed form or orbit count")
    _add_common(sp)
    _add_census(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("report", help="batch table over n = 1..N")
    _add_common(sp)
    sp.set_defaults(func=_cmd_report)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        text, code = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    except (MemoryBudgetExceeded, BracketingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
