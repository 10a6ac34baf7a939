"""Layered benchmark for coordlat: workloads, oracles and a span tracer.

Run it with ``python3 perfbench/run.py --workload census --seed 1
--seconds 20 --trace 0``; see ``run.py`` for what each mode measures.
"""
