"""Spans around coordlat's public functions, recorded from outside.

A traced pass rebinds each function named in TRACED wherever a loaded
coordlat module holds it.  From-imports bind at import time, so
``coordlat.cli.is_real_rooted`` is a binding of its own next to
``coordlat.realroots.is_real_rooted``; both are replaced, and calls made
inside the package become child spans of their caller.  A span records
its name, its parent, its start and its end.  Self time is a span's
duration minus the time its child spans cover.  Everything stays in
memory and is reduced to per-pass metrics when the pass ends.
"""
from __future__ import annotations

import importlib
import resource
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer -> public functions (and the LatticeSpec constructor) timed as spans
TRACED = {
    "cli": ("main",),
    "coordinator": ("coordinator",),
    "exactpoly": ("squarefree_decomposition", "series_expand"),
    "realroots": ("is_real_rooted", "isolate_real_roots", "d_type_brackets", "refine_bracket"),
    "seqanalysis": ("check_log_concave", "check_unimodal", "pf_minor_check"),
    "latticeenum": (
        "LatticeSpec", "lattice_spec", "enumerate_lengths", "recover_coordinator", "oracle_verify",
    ),
}
LAYERS = tuple(TRACED)

# calls whose argument or result feeds a count, kept for after the pass
_OBSERVED = ("realroots.is_real_rooted", "realroots.isolate_real_roots", "latticeenum.enumerate_lengths")


def _targets() -> list[tuple[str, object]]:
    out = []
    for layer, names in TRACED.items():
        mod = importlib.import_module(f"coordlat.{layer}")
        for name in names:
            if hasattr(mod, name):
                out.append((f"{layer}.{name}", getattr(mod, name)))
    return out


@contextmanager
def rebound(replace: dict[int, tuple[object, object]]):
    """Point every coordlat module attribute holding an original at its stand-in.

    ``replace`` maps id(original) to (original, stand-in).  The old
    bindings come back on exit.
    """
    saved = []
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "coordlat":
            continue
        for attr, val in list(vars(mod).items()):
            hit = replace.get(id(val))
            if hit is not None and hit[0] is val:
                saved.append((mod, attr, val))
                setattr(mod, attr, hit[1])
    try:
        yield
    finally:
        for mod, attr, val in saved:
            setattr(mod, attr, val)


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.observed: list[tuple[str, object, object]] = []  # (name, first arg, result)
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, open_, observed = self.spans, self._open, self.observed

        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else None, 0.0, 0.0]
            open_.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                open_.pop()
            if name in _OBSERVED:
                observed.append((name, args[0] if args else None, result))
            return result

        return traced

    def active(self):
        """Context manager under which every TRACED function records spans."""
        return rebound({id(fn): (fn, self._wrap(name, fn)) for name, fn in _targets()})

    def span_metrics(self, scale: float, wall: float) -> dict[str, float]:
        """Inclusive (``.s``) and self (``.self_s``) time per function, times
        ``scale``, and each layer's self time as a share of ``wall``, the
        pass wall time at that scale."""
        covered = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, t0, t1) in enumerate(self.spans):
            own = (t1 - t0 - covered[i]) * scale
            out[f"{name}.s"] += (t1 - t0) * scale
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.share"] += own / wall
        return out

    def count_metrics(self) -> dict[str, float]:
        """Work counts from the recorded arguments and results.

        Sturm chains are rebuilt here, outside every span, with the
        package's public ``sturm_chain``.
        """
        from coordlat import realroots

        polys = {
            tuple(p.coeffs): p
            for name, p, _ in self.observed
            if name != "latticeenum.enumerate_lengths" and p.degree >= 1
        }
        chains = [realroots.sturm_chain(p).chain for p in polys.values()]
        censuses = [r.counts for name, _, r in self.observed if name == "latticeenum.enumerate_lengths"]
        return {
            "realroots.chain_len": sum(len(c) for c in chains),
            "realroots.chain_max_bits": max(
                (abs(x.numerator).bit_length() for c in chains for q in c for x in q.coeffs),
                default=0,
            ),
            "realroots.intervals": sum(
                len(r) for name, _, r in self.observed if name == "realroots.isolate_real_roots"
            ),
            "latticeenum.points": sum(sum(c) for c in censuses),
            "latticeenum.frontier_max": max((max(c) for c in censuses), default=0),
        }


def peak_rss_bytes() -> int:
    """Peak resident set size of this process image (``VmHWM``).

    ``ru_maxrss`` is the fallback only: Linux carries the peak of the
    process that forked this one across exec, so it can report the
    caller's memory instead of the benchmark's.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@contextmanager
def enumerate_rss_rise():
    """Measure how far ``enumerate_lengths`` calls push the peak RSS.

    Yields a one-element list that ends up holding the summed rise of
    the process's peak resident set size across the calls, in bytes.
    Memory a finished call frees is reused by the next, so the sum is
    close to the largest call's own peak above what the process held
    before it.  tracemalloc would attribute memory more exactly, but it
    slows the census sixfold.
    """
    from coordlat import latticeenum

    fn = latticeenum.enumerate_lengths
    rise = [0]

    def measured(*args, **kwargs):
        before = peak_rss_bytes()
        try:
            return fn(*args, **kwargs)
        finally:
            rise[0] += peak_rss_bytes() - before

    with rebound({id(fn): (fn, measured)}):
        yield rise
