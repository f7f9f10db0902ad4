"""Benchmark regression gate for CI.

Compares a fresh pytest-benchmark run (``BENCH_ci.json``) against the
committed baseline (``benchmarks/BENCH_baseline.json``) and fails when any
tracked case's median regresses by more than the threshold (30% by
default).

Raw medians are not comparable across machines, so both sides are
normalized by a *calibration* measurement: the time of a fixed pure-Python
spin workload, measured on the machine that produced the numbers.  The
baseline stores its own calibration; the gate measures the current
machine's calibration at comparison time (it runs right after the
benchmarks, on the same runner).  What is compared is therefore "medians
in units of local spin time", which cancels CPU speed while preserving
algorithmic regressions.

Usage::

    python -m pytest benchmarks -q --benchmark-only --benchmark-json BENCH_ci.json
    python benchmarks/ci_gate.py compare --current BENCH_ci.json
    python benchmarks/ci_gate.py update --current BENCH_ci.json   # refresh baseline

Only cases whose baseline median is at least ``--min-track`` seconds are
tracked: single-shot micro-benchmarks are too noisy for a 30% gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"
DEFAULT_THRESHOLD = 0.30
DEFAULT_MIN_TRACK = 0.05

#: Cases measured to swing more than the threshold between identical runs
#: (allocation-heavy explorers whose run-to-run variance is machine noise,
#: not regression signal).  They still run -- their correctness assertions
#: gate the job -- but their timings are not tracked.
UNSTABLE_CASES = {
    "test_e12_bounded_enumeration_agrees_with_analysis",
}

#: Headline cases the gate insists on seeing in every run, whatever the
#: committed baseline tracks: if one of these disappears from the report
#: (renamed, deleted, or silently skipped) the gate fails structurally even
#: after a baseline refresh.  Keep in sync when headline benchmarks move.
EXPECTED_CASES = {
    "test_e20_streaming_beats_naive_accepts_reruns",
    "test_e22_mcl_text_to_check_batch_end_to_end",
    "test_e23_fused_streaming_beats_per_spec_sweeps",
    "test_e23_fused_batch_checking_beats_per_spec_accepts",
    "test_e24_snapshot_restore_beats_refeeding",
    "test_e25_vector_streaming_beats_fused",
    "test_e26_metrics_enabled_streaming_overhead",
    "test_e27_wal_overhead_and_recovery_beat_refeeding",
    "test_e28_enforced_feed_overhead",
}

#: Iterations of the calibration workload; sized to take ~100ms on a dev VM.
_CALIBRATION_N = 400_000


def _spin() -> int:
    """Arithmetic plus dict/frozenset churn, mirroring the benchmarks' mix."""
    total = 0
    table = {}
    for value in range(_CALIBRATION_N):
        total += value * value
        if value % 16 == 0:
            table[frozenset((value % 97, value % 31))] = total
    return total + len(table)


def calibrate(repeats: int = 5) -> float:
    """Seconds per calibration workload on this machine (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _spin()
        best = min(best, time.perf_counter() - start)
    return best


def load_medians(benchmark_json: Path) -> Dict[str, float]:
    """``case name -> median seconds`` from a pytest-benchmark JSON report."""
    with open(benchmark_json) as handle:
        report = json.load(handle)
    return {entry["name"]: entry["stats"]["median"] for entry in report["benchmarks"]}


def update_baseline(current: Path, baseline: Path, min_track: float) -> int:
    """Write a fresh baseline from ``current``, keeping only stable cases."""
    medians = load_medians(current)
    tracked = {
        name: median
        for name, median in sorted(medians.items())
        if median >= min_track and name not in UNSTABLE_CASES
    }
    dropped = sorted(set(medians) - set(tracked))
    payload = {
        "calibration": calibrate(),
        "min_track": min_track,
        "cases": tracked,
    }
    with open(baseline, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline: {len(tracked)} tracked cases -> {baseline}")
    if dropped:
        print(f"not tracked (unstable, or median < {min_track}s): {', '.join(dropped)}")
    return 0


def compare(current: Path, baseline: Path, threshold: float) -> int:
    """Exit status 0 when every tracked case is within the threshold.

    Returns 1 for timing regressions (worth confirming with a retry run)
    and 2 for structural failures -- a tracked case missing from the
    current run -- which a retry cannot fix.
    """
    with open(baseline) as handle:
        base = json.load(handle)
    current_medians = load_medians(current)
    base_calibration = base["calibration"]
    current_calibration = calibrate()
    print(
        f"calibration: baseline {base_calibration * 1000:.1f}ms, "
        f"current {current_calibration * 1000:.1f}ms"
    )

    failures = []
    structural = False
    for name in sorted(EXPECTED_CASES):
        if name not in current_medians:
            failures.append(f"{name}: headline case missing from the current run")
            structural = True
    for name, base_median in sorted(base["cases"].items()):
        if name in UNSTABLE_CASES:
            continue
        if name not in current_medians:
            if name not in EXPECTED_CASES:  # headline misses are reported above
                failures.append(f"{name}: tracked case missing from the current run")
            structural = True
            continue
        base_norm = base_median / base_calibration
        current_norm = current_medians[name] / current_calibration
        change = current_norm / base_norm - 1.0
        verdict = "FAIL" if change > threshold else "ok"
        print(
            f"  [{verdict}] {name}: baseline {base_median * 1000:.1f}ms, "
            f"current {current_medians[name] * 1000:.1f}ms, "
            f"normalized change {change:+.1%}"
        )
        if change > threshold:
            failures.append(
                f"{name}: normalized median regressed {change:+.1%} (> {threshold:.0%})"
            )

    if failures:
        print(f"\nregression gate FAILED ({len(failures)} case(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 2 if structural else 1
    print(f"\nregression gate passed: {len(base['cases'])} tracked cases within {threshold:.0%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compare_cmd = sub.add_parser("compare", help="gate a fresh run against the baseline")
    compare_cmd.add_argument("--current", type=Path, required=True)
    compare_cmd.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    compare_cmd.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)

    update_cmd = sub.add_parser("update", help="rewrite the committed baseline")
    update_cmd.add_argument("--current", type=Path, required=True)
    update_cmd.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    update_cmd.add_argument("--min-track", type=float, default=DEFAULT_MIN_TRACK)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.current, args.baseline, args.threshold)
    return update_baseline(args.current, args.baseline, args.min_track)


if __name__ == "__main__":
    raise SystemExit(main())
