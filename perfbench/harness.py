"""Measurement loop shared by the workloads: passes, checks and aggregation.

A *run* is one invocation of the benchmark.  It repeats *passes* -- one
full workload iteration each, on fresh input lists -- until ``--seconds``
have elapsed, then aggregates:

* untraced runs (``--trace 0``) report the end-to-end metrics: medians over
  the passes (latency: percentiles over every operation of the run;
  state_mb: the first pass), with every time and rate scaled by a
  calibration measured around it (:class:`Calibration`);
* traced runs (``--trace 1``) alternate untraced and traced passes and
  report the per-layer metrics (medians over the traced passes), plus the
  trace's own overhead (traced ÷ untraced wall time of the same region).
"""

import ctypes
import ctypes.util
import gc
import math
import random
import statistics
from time import perf_counter

try:
    import numpy
except ImportError:  # the program falls back to its pure-Python kernel
    numpy = None

#: Median calibration round (:class:`Calibration`) on the reference host: a
#: 2-core x86-64 VM, CPython 3.11, numpy 2.4.
CALIBRATION_NOMINAL_S = 0.015

#: Fresh engine → ready session, timed this many times in every pass.
SETUPS_PER_PASS = 9


END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "latency_p50_us": "us",
    "latency_p90_us": "us",
    "recover_s": "s",
    "state_mb": "MiB",
}

#: Every per-layer metric with its unit; a layer a workload bypasses reads 0.
PER_LAYER_UNITS = {
    "spec.compile_s": "s",
    "compiler.compile_s": "s",
    "cache.spec_lookups_per_call": "count",
    "cache.kernel_lookups_per_call": "count",
    "batch.encode_s": "s",
    "batch.encode_ns_per_event": "ns/event",
    "batch.objects": "count",
    "batch.encode_histories_s": "s",
    "engine.feed_s": "s",
    "engine.feed_ns_per_event": "ns/event",
    "engine.feed_calls": "count",
    "engine.enforce_s": "s",
    "engine.admit_ratio": "ratio",
    "engine.rejections": "count",
    "engine.verdicts_s": "s",
    "engine.read_us": "us",
    "journal.feed_s": "s",
    "journal.overhead_s": "s",
    "journal.checkpoint_s": "s",
    "journal.checkpoints": "count",
    "journal.records": "count",
    "journal.bytes": "bytes",
    "journal.recover_s": "s",
    "snapshot.dump_s": "s",
    "snapshot.bytes": "bytes",
    "snapshot.restore_s": "s",
    "executor.check_s": "s",
    "executor.check_ns_per_event": "ns/event",
    "diagnostics.explain_us": "us",
    "diagnostics.violations": "count",
    "diagnostics.explains_per_s": "violations/s",
    "harness.unattributed_s": "s",
    "harness.trace_overhead": "ratio",
    "harness.calibration_ms": "ms",
}


class Ledger:
    """Operations attempted and failed.  An operation is one public call the
    workload makes; it fails if it raises or its output disagrees with the
    oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what, count=1):
        """Count ``count`` operations, all of them failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)

    def tally(self, attempted, failed, what):
        """Count ``attempted`` operations of which ``failed`` disagreed."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{what}: {failed} of {attempted} wrong")


def _malloc_trim():
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


#: Returns freed heap memory to the system (glibc), so that memory freed by
#: an earlier pass is not silently reused by the next session.
release_free_memory = _malloc_trim()


def baseline_rss_mib():
    """RSS after collecting garbage and returning free heap memory."""
    gc.collect()
    release_free_memory()
    return rss_mib()


def rss_mib():
    """Resident set size of this process in MiB (Linux ``/proc``)."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * 4096 / 2**20


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


class Calibration:
    """A fixed reference computation timed around every pass.

    The host this benchmark runs on is shared: its speed drifts by ±20%
    over minutes, which no number of passes inside one run averages away.
    The calibration rounds -- dictionary lookups, a list comprehension and a
    numpy gather, the same mix of interpreter and memory work as the
    program's hot paths -- drift with it, so the end-to-end times are
    reported scaled to a nominal calibration round of
    :data:`CALIBRATION_NOMINAL_S`.  The unscaled values are printed beside
    them.
    """

    def __init__(self):
        rng = random.Random(0)
        self._keys = [rng.randrange(1 << 40) for _ in range(100_000)]
        self._table = {key: i for i, key in enumerate(self._keys)}
        self._numbers = self._index = None
        if numpy is not None:
            self._numbers = numpy.arange(1 << 20, dtype=numpy.int64)
            self._index = numpy.array([rng.randrange(1 << 20) for _ in range(1 << 18)])
        self.samples = []

    def measure(self, rounds=5):
        """Time ``rounds`` calibration rounds; return their median."""
        times = []
        for _ in range(rounds):
            start = perf_counter()
            values = list(map(self._table.__getitem__, self._keys))
            [value + 1 for value in values]
            if self._numbers is not None:
                self._numbers.take(self._index).sum()
            times.append(perf_counter() - start)
        self.samples.extend(times)
        return statistics.median(times)

    def round_s(self):
        return statistics.median(self.samples)


#: Per-pass samples that are processing times, scaled by the calibration.
TIME_SAMPLES = ("setup_s", "recover_s", "latency_s")


def calibrated(values, round_s):
    """One pass's samples scaled to the nominal calibration round.

    A sample list may carry its own calibration rounds under
    ``<key>_round``, measured right around each sample; the others use
    ``round_s``, measured around the whole pass.  Either way a sample taken
    while the host was slow is scaled back by the same factor.
    """
    scaled = {}
    for key, samples in values.items():
        if key.endswith("_round"):
            continue
        rounds = values.get(key + "_round") or [round_s] * len(samples)
        if key in TIME_SAMPLES:
            samples = [v * CALIBRATION_NOMINAL_S / r for v, r in zip(samples, rounds)]
        elif key == "events_per_s":
            samples = [v * r / CALIBRATION_NOMINAL_S for v, r in zip(samples, rounds)]
        scaled[key] = samples
    return scaled


def measure(workload, seconds, trace, tracers):
    """Run passes of ``workload`` for ``seconds``.

    Returns ``(metrics, raw, info)``: the reported ``{name: value}``, the
    values before calibration scaling, and ``info`` (passes, latency
    operations and the scaled latency p99 -- printed, not gated -- and the
    calibration).  ``tracers`` collects the traced
    passes' span recorders.
    """
    calibration = Calibration()
    workload.calibrate = calibration.measure
    deadline = perf_counter() + seconds
    passes = 0
    samples, raw_samples, layers, traced_walls, untraced_walls = {}, {}, {}, [], []
    durations = []
    # Passes run whole; another one starts only while at least half of a
    # typical pass still fits, so a run overshoots ``seconds`` by little.
    while passes == 0 or deadline - perf_counter() > statistics.median(durations) / 2:
        started = perf_counter()
        gc.collect()
        before = calibration.measure()
        values = workload.untraced_pass()
        round_s = (before + calibration.measure()) / 2
        untraced_walls.extend(values["wall_s"])
        unscaled = {key: value for key, value in values.items() if not key.endswith("_round")}
        for target, pass_values in (
            (raw_samples, unscaled),
            (samples, calibrated(values, round_s)),
        ):
            for key, value in pass_values.items():
                target.setdefault(key, []).extend(value)
        if trace:
            gc.collect()
            tracer = workload.new_tracer(len(tracers))
            tracers.append(tracer)
            layer_values, wall = workload.traced_pass(tracer)
            traced_walls.append(wall)
            for key, value in layer_values.items():
                layers.setdefault(key, []).append(value)
        passes += 1
        durations.append(perf_counter() - started)
    info = {
        "passes": passes,
        "operations": len(samples["latency_s"]),
        "calibration_s": calibration.round_s(),
    }
    if trace:
        metrics = {name: median_or_zero(layers.get(name, ())) for name in PER_LAYER_UNITS}
        metrics["harness.trace_overhead"] = statistics.median(
            traced_walls
        ) / statistics.median(untraced_walls)
        metrics["harness.calibration_ms"] = calibration.round_s() * 1e3
        return metrics, dict(metrics), info
    info["latency_p99_us"] = percentile(samples["latency_s"], 0.99) * 1e6
    return end_to_end_metrics(samples), end_to_end_metrics(raw_samples), info


def end_to_end_metrics(samples):
    latencies = samples["latency_s"]
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "events_per_s": statistics.median(samples["events_per_s"]),
        "latency_p50_us": percentile(latencies, 0.50) * 1e6,
        "latency_p90_us": percentile(latencies, 0.90) * 1e6,
        "recover_s": statistics.median(samples["recover_s"]),
        # The first pass only: later passes reuse heap memory freed by the
        # sessions before them (audit's second pass grew RSS by 3 MiB where
        # its first grew it by 73 MiB).
        "state_mb": samples["state_mb"][0],
    }


def layer_metrics(tracer, root, extra):
    """Per-layer values of one traced pass.

    ``root`` is the span covering the pass's timed region; ``extra`` holds
    counts the workload read from the program (journal and snapshot sizes,
    cache-lookup deltas) under their metric names.
    """
    totals = tracer.totals()

    def seconds(span):
        return totals.get(span, (0.0, 0))[0]

    def calls(span):
        return totals.get(span, (0.0, 0))[1]

    def per(amount, count, scale):
        return amount / count * scale if count else 0.0

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(
        {
            "spec.compile_s": seconds("spec.add_spec"),
            "compiler.compile_s": seconds("compiler.compiled"),
            "batch.encode_s": seconds("batch.encode"),
            "batch.encode_ns_per_event": per(
                seconds("batch.encode"), extra.get("encoded_events", 0), 1e9
            ),
            "batch.encode_histories_s": seconds("batch.encode_histories"),
            "engine.feed_s": seconds("engine.feed"),
            "engine.feed_ns_per_event": per(
                seconds("engine.feed"), extra.get("fed_events", 0), 1e9
            ),
            "engine.feed_calls": calls("engine.feed"),
            "engine.enforce_s": seconds("engine.enforce"),
            "engine.verdicts_s": seconds("engine.verdicts"),
            "engine.read_us": per(seconds("engine.doomed"), calls("engine.doomed"), 1e6),
            "journal.feed_s": seconds("journal.feed"),
            "journal.recover_s": seconds("journal.recover"),
            "snapshot.dump_s": seconds("snapshot.dump"),
            "snapshot.restore_s": seconds("snapshot.restore"),
            "executor.check_s": seconds("executor.check"),
            "executor.check_ns_per_event": per(
                seconds("executor.check"), extra.get("checked_events", 0), 1e9
            ),
            "diagnostics.explain_us": per(
                seconds("diagnostics.explain"), calls("diagnostics.explain"), 1e6
            ),
            "diagnostics.violations": calls("diagnostics.explain"),
            "diagnostics.explains_per_s": per(
                calls("diagnostics.explain"), seconds("diagnostics.explain"), 1.0
            ),
            "harness.unattributed_s": tracer.self_times()[root],
        }
    )
    if calls("journal.feed"):
        values["journal.overhead_s"] = values["journal.feed_s"] - values["engine.enforce_s"]
    values.update({key: value for key, value in extra.items() if key in PER_LAYER_UNITS})
    return values
