"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

The program under test is imported from ``src/`` of the checkout this file
sits in.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, and then writes every
span to ``.perfbench_out/``.  Outputs are checked against an independent
oracle; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output was correct.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/``; ``None`` when absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return None
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC) + os.sep):
        return None
    return repro


def environment(workload_name, seed, kernel):
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload_name,
        "seed": seed,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": kernel,
    }


def main(argv=None):
    args = parse_args(argv)
    if import_program() is None:
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness, spans
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(out, f"work-{os.getpid()}")
    os.makedirs(workdir)
    tracers = []
    workload = None
    metrics, raw, info = {}, {}, {"passes": 0}
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        # The inputs are the benchmark's own data: keep them out of the
        # collector's sweeps so they do not inflate the program's GC time.
        gc.collect()
        gc.freeze()
        metrics, raw, info = harness.measure(workload, args.seconds, args.trace, tracers)
    except Exception:
        traceback.print_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = workload.ledger if workload is not None else harness.Ledger()
    if not info["passes"]:
        ledger.check(False, "the run raised before completing a pass")
    env = environment(args.workload, args.seed, workload.kernel if workload else None)
    if tracers:
        path = os.path.join(out, f"spans-{args.workload}-{args.seed}.json.gz")
        spans.dump(path, {"environment": env}, tracers)
        print(f"perfbench: spans written to {os.path.relpath(path, ROOT)}")
    units = harness.PER_LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={info['passes']}")
    for name, value in metrics.items():
        note = f"  (unscaled {raw[name]:.6g})" if raw[name] != value else ""
        print(f"  {name:32s} {value:16.6g} {units[name]}{note}")
    if "latency_p99_us" in info:
        # Printed, not gated: on a shared host the p99 follows the host's
        # millisecond stalls more than the program.
        print(f"  {'latency_p99_us':32s} {info['latency_p99_us']:16.6g} us  (not gated)")
    if "calibration_s" in info:
        print(
            f"  latency over {info['operations']} operations;"
            f" calibration round {info['calibration_s'] * 1e3:.2f} ms"
            f" (nominal {harness.CALIBRATION_NOMINAL_S * 1e3:.2f} ms)"
        )
    rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"  error_rate {rate:.6g} ({ledger.failed} of {ledger.attempted} operations failed)")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    print(f"perfbench env {json.dumps(env, sort_keys=True)}")
    correct = ledger.failed == 0 and ledger.attempted > 0
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
