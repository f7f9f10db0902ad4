"""The repository benchmark: raw events in, verdicts out, end to end and per layer.

Run one workload with ``python3 perfbench/run.py --workload bulk --seed 1
--seconds 24 --trace 0``; ``BENCHMARK.json`` at the repository root lists
the workloads and metrics, ``perfbench/interactions.json`` which layer each
per-layer metric belongs to and which end-to-end metric it should move.
"""
