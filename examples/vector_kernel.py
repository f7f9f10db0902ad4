"""Vector kernel walkthrough: one monitoring suite, numpy gathers.

The engine's multi-spec kernel (:mod:`repro.engine.vector`) fuses the
registered specs into product automata, stores each product's transition
table as a flat narrow-dtype ndarray, and advances a whole encoded batch
with column gathers instead of a per-event Python loop.  This example

1. registers the six-constraint banking monitoring suite and shows the
   per-group table dtypes picked from the uint8/uint16/uint32 ladder,
2. streams one pre-encoded batch twice: the first (cold) feed builds the
   batch's peel plan, the warm feed replays the plan cached on the batch,
3. snapshots the session and restores it into a fresh engine -- once with
   the same grouping, once with a product cap that splits the suite into
   several groups, where the states are translated per spec -- and checks
   that both restored sessions finish the stream with the same verdicts.

Run with:  python examples/vector_kernel.py
"""

import time

from repro.engine import PRODUCT_STATE_CAP, HistoryCheckerEngine
from repro.workloads import generators


def build_engine(suite, product_cap: int = PRODUCT_STATE_CAP) -> HistoryCheckerEngine:
    engine = HistoryCheckerEngine(product_cap=product_cap)
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    for name in suite:
        engine.compiled(name)  # compile outside the timers
    return engine


def timed_feed(stream, batch) -> float:
    start = time.perf_counter()
    stream.feed_events(batch)
    return time.perf_counter() - start


def main() -> None:
    histories, events, suite = generators.conforming_banking_stream(
        seed=7, objects=20_000, mean_length=10
    )
    print(f"monitoring suite: {', '.join(suite)}")
    print(f"stream: {len(events)} events over {len(histories)} accounts")
    engine = build_engine(suite)

    # ----------------------------------------------------------------- #
    # 1. The dtype ladder: each group's table in the narrowest dtype.
    # ----------------------------------------------------------------- #
    kernel = engine._kernel_for(tuple(suite))
    for index, group in enumerate(kernel.groups):
        table = kernel._table(index).table
        print(
            f"group {index}: {len(group.names)} spec(s), "
            f"{table.shape[0]} product states x {table.shape[1]} symbols, "
            f"dtype {table.dtype} ({table.nbytes} bytes)"
        )

    # ----------------------------------------------------------------- #
    # 2. The peel plan: built on the first feed, cached on the batch.
    # ----------------------------------------------------------------- #
    half = len(events) // 2
    batch = engine.encode_events(events[:half])
    cold = timed_feed(engine.open_stream(), batch)
    stream = engine.open_stream()
    warm = timed_feed(stream, batch)
    chunk_size, _plan, (gathers, scalar_events), _scaled = batch._np_plan
    print(
        f"\npeel plan: {gathers} gather rounds over "
        f"{-(-len(batch) // chunk_size)} chunks of {chunk_size} events "
        f"({scalar_events} scalar-fallback events)"
    )
    print(f"cold feed (builds the plan): {cold * 1000:6.1f}ms")
    print(f"warm feed (replays it):      {warm * 1000:6.1f}ms")

    # ----------------------------------------------------------------- #
    # 3. Snapshot round trips, same grouping and split grouping.
    # ----------------------------------------------------------------- #
    blob = stream.snapshot()
    stream.feed_events(events[half:])
    expected = stream.all_verdicts()
    print(f"\nsnapshot: {len(blob) / 1024:.0f}KB after {half} events")
    for label, product_cap in (("same grouping", PRODUCT_STATE_CAP), ("split grouping", 8)):
        target = build_engine(suite, product_cap)
        restored = target.restore_stream(blob)
        restored.feed_events(events[half:])
        assert restored.all_verdicts() == expected, label
        groups = len(target._kernel_for(tuple(suite)).groups)
        print(f"restored with {label} ({groups} group(s)): verdict-identical")


if __name__ == "__main__":
    main()
