"""E23: the columnar event pipeline -- encode-once batches and the fused kernel.

The scale claim of the columnar PR, pinned by in-test assertions on a
realistic monitoring workload (six simultaneous account constraints over
~10^6 mostly-conforming events from 10^5 objects):

* encode-once + fused product sweep is at least 3x faster than the PR-2
  per-spec sweeps -- for streaming (``StreamChecker.feed_events`` vs one
  ``CursorTable.advance_events`` pass per spec) *and* for batch checking
  (``check_batch_all`` vs one ``CompiledSpec.accepts`` pass per spec).

Conforming traffic is the honest baseline: on violation-heavy streams the
old per-spec paths short-circuit doomed objects early, while production
checking traffic -- where violations are the exception -- pays the full
per-event cost.
"""

import time

import pytest

from repro.engine import HistoryCheckerEngine
from repro.engine.cursors import CursorTable
from repro.workloads import generators


@pytest.fixture(scope="module")
def conforming_1m():
    """~10^6 conforming events over 10^5 accounts, plus the six-spec suite."""
    return generators.conforming_banking_stream(seed=2026, objects=100_000, mean_length=10)


@pytest.fixture(scope="module")
def suite_engine(conforming_1m):
    _histories, _events, suite = conforming_1m
    # Pinned to the pure-Python kernel: E23's baselines track the fused
    # interpreter; the numpy kernel has its own headline case (E25).
    engine = HistoryCheckerEngine(kernel="fused")
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    for name in suite:
        engine.compiled(name)  # compile outside every timer
    return engine


def test_e23_fused_streaming_beats_per_spec_sweeps(
    benchmark, run_once, conforming_1m, suite_engine
):
    _histories, events, suite = conforming_1m
    engine = suite_engine
    compiled = {name: engine.compiled(name) for name in suite}

    # PR-2 path: the event batch swept once per spec, hashing every
    # frozenset through the spec's codes dict and every id through a dict.
    start = time.perf_counter()
    old_tables = {name: CursorTable() for name in suite}
    for name, spec in compiled.items():
        old_tables[name].advance_events(spec, events)
    old_elapsed = time.perf_counter() - start

    # Columnar path: encode once, advance every spec in one fused pass.
    def stream_all():
        stream = engine.open_stream()
        batch = engine.encode_events(events, objects=stream.object_interner)
        stream.feed_events(batch)
        return stream

    new_elapsed = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        stream = stream_all()
        new_elapsed = min(new_elapsed, time.perf_counter() - start)

    run_once(benchmark, stream_all)
    speedup = old_elapsed / new_elapsed
    kernel = engine._kernel_for(tuple(suite))
    print(
        f"\n[E23] streaming {len(events)} events x {len(suite)} specs: "
        f"per-spec sweeps {old_elapsed * 1000:.0f}ms, encode+fused {new_elapsed * 1000:.0f}ms, "
        f"speedup {speedup:.1f}x ({kernel!r})"
    )
    for name, spec in compiled.items():
        assert stream.verdicts(name) == old_tables[name].verdicts(spec), name
    assert speedup >= 3.0, f"expected >= 3x over per-spec sweeps, got {speedup:.2f}x"


def test_e23_fused_batch_checking_beats_per_spec_accepts(
    benchmark, run_once, conforming_1m, suite_engine
):
    histories, _events, suite = conforming_1m
    engine = suite_engine
    compiled = {name: engine.compiled(name) for name in suite}

    # PR-2 check_batch_all: one compiled-table accepts() pass per spec,
    # re-hashing every history's frozensets for each of them.
    start = time.perf_counter()
    old_verdicts = {}
    for name, spec in compiled.items():
        accepts = spec.accepts
        old_verdicts[name] = [accepts(history) for history in histories]
    old_elapsed = time.perf_counter() - start

    def batch_all():
        return engine.check_batch_all(histories)

    new_elapsed = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        new_verdicts = batch_all()
        new_elapsed = min(new_elapsed, time.perf_counter() - start)

    run_once(benchmark, batch_all)
    speedup = old_elapsed / new_elapsed
    events = sum(len(history) for history in histories)
    print(
        f"\n[E23] batch {len(histories)} histories ({events} events) x {len(suite)} specs: "
        f"per-spec accepts {old_elapsed * 1000:.0f}ms, fused columnar {new_elapsed * 1000:.0f}ms, "
        f"speedup {speedup:.1f}x"
    )
    assert new_verdicts == old_verdicts
    assert speedup >= 3.0, f"expected >= 3x over per-spec accepts, got {speedup:.2f}x"
