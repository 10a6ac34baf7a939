"""Speed of the machine right now, from a fixed round of pure-Python work.

On a shared two-core virtual machine the processor flips between a fast
and a slow state about 1.5x apart, often within a second, and the share
of slow time drifts over minutes.  The same pass over the same jobs
then differs by 10-20% from one run to the next, and a median over one
run's passes does not settle.  The benchmark therefore times one round
of this reference work before every job and after the last one, and
scales each job's time by ``NOMINAL_S / (mean of the rounds just before
and just after it)``: times are reported in seconds at the speed where
one round takes ``NOMINAL_S``.  The round mixes the kinds of work
coordlat does (big-integer arithmetic as in the Sturm chains, tuples
hashed into a small set and into a dict probed at scattered points as
in the census, and ``Fraction`` arithmetic) and calls nothing in
coordlat, so no change to the program can move it.

On an Intel Xeon at 2.1 GHz under Python 3.11 one round took 37 ms in
its median, which is ``NOMINAL_S``; reported times there are close to
raw seconds.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.037


def _bigint() -> int:
    x = 3**400 + 1
    acc = 0
    for i in range(110000):
        acc = (acc * x + i) >> 350
    return acc


def _tuple_set() -> int:
    seen = set()
    frontier = [(0, 0, 0)]
    for i in range(10000):
        p = frontier[i % len(frontier)]
        w = (p[0] + i % 5 - 2, p[1] + i % 3 - 1, p[2] + i % 7 - 3)
        if w not in seen:
            seen.add(w)
            frontier.append(w)
    return len(seen)


def _walk() -> int:
    # a dict that outgrows the caches, probed at scattered points, as the
    # census visited set is
    seen = {}
    frontier = [(0, 0, 0, 0)]
    for i in range(20000):
        p = frontier[(i * 7919) % len(frontier)]
        w = (p[0] + i % 5 - 2, p[1] + i % 3 - 1, p[2] + i % 7 - 3, p[3] + i % 2)
        if w not in seen:
            seen[w] = i
            frontier.append(w)
    return len(seen)


def _fractions() -> Fraction:
    a = Fraction(1, 3)
    for i in range(600):
        a = (a * Fraction(i + 2, i + 1) + Fraction(1, i + 7)) / 2
    return a


def round_seconds() -> float:
    """Wall time of one round of the reference work."""
    t0 = perf_counter()
    _bigint()
    _tuple_set()
    _walk()
    _fractions()
    return perf_counter() - t0
