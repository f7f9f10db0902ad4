"""Vector kernel walkthrough: the same monitoring suite, numpy gathers.

The vector kernel (:mod:`repro.engine.vector`) mirrors the fused product
kernel's transition tables as flat narrow-dtype ndarrays and advances a
whole encoded batch with column gathers instead of a per-event Python
loop.  This example

1. registers the six-constraint banking monitoring suite twice -- once
   with ``kernel="fused"`` (the pure-Python product kernel) and once with
   ``kernel="vector"`` (the numpy gather kernel),
2. streams the identical pre-encoded event batch through both and compares
   wall-clock and verdicts (always identical -- the vector kernel inherits
   the fused kernel's state numbering),
3. peeks at the machinery: the per-group table dtypes from the
   uint8/uint16/uint32 ladder and the peel plan cached on the batch, and
4. snapshots the vector session and restores it under the fused kernel --
   the snapshot wire format is kind-portable, so a monitor checkpointed on
   a numpy host restores on a plain-Python one.

Without numpy installed (it ships as the optional ``repro[fast]`` extra)
the example still runs: ``kernel="auto"`` -- the default -- silently uses
the fused kernel, and the vector half of the comparison is skipped.

Run with:  python examples/vector_kernel.py
"""

import time

from repro.engine import HAVE_NUMPY, HistoryCheckerEngine
from repro.workloads import generators


def build_engine(suite, kind: str) -> HistoryCheckerEngine:
    engine = HistoryCheckerEngine(kernel=kind)
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    for name in suite:
        engine.compiled(name)  # compile outside the timers
    return engine


def timed_stream(engine, events):
    """Best-of-three feed of a pre-encoded batch, plus the final stream."""
    batch = engine.encode_events(events)
    best, stream = float("inf"), None
    for _ in range(3):
        stream = engine.open_stream()
        start = time.perf_counter()
        stream.feed_events(batch)
        best = min(best, time.perf_counter() - start)
    return best, stream, batch


def main() -> None:
    histories, events, suite = generators.conforming_banking_stream(
        seed=7, objects=20_000, mean_length=10
    )
    print(f"monitoring suite: {', '.join(suite)}")
    print(f"stream: {len(events)} events over {len(histories)} accounts")
    if not HAVE_NUMPY:
        print("\nnumpy is not installed (pip install 'repro[fast]'):")
        print('kernel="auto" falls back to the pure-Python fused kernel.')
        engine = build_engine(suite, "auto")
        elapsed, stream, _batch = timed_stream(engine, events)
        print(f"fused sweep: {elapsed * 1000:.1f}ms")
        return

    # ----------------------------------------------------------------- #
    # 1. + 2. The same batch through both kernels.
    # ----------------------------------------------------------------- #
    fused = build_engine(suite, "fused")
    vector = build_engine(suite, "vector")
    fused_ms, fused_stream, _ = timed_stream(fused, events)
    vector_ms, vector_stream, batch = timed_stream(vector, events)
    print(
        f"\nfused sweep:  {fused_ms * 1000:6.1f}ms"
        f"\nvector sweep: {vector_ms * 1000:6.1f}ms"
        f"  ({fused_ms / vector_ms:.1f}x, same verdicts)"
    )
    for name in suite:
        assert vector_stream.verdicts(name) == fused_stream.verdicts(name), name

    # ----------------------------------------------------------------- #
    # 3. The machinery: dtype ladder and the cached peel plan.
    # ----------------------------------------------------------------- #
    kernel = vector._kernel_for(tuple(suite))
    for index, group in enumerate(kernel.groups):
        table = kernel._table(index).table
        print(
            f"group {index}: {len(group.names)} spec(s), "
            f"{table.shape[0]} product states x {table.shape[1]} symbols, "
            f"dtype {table.dtype} ({table.nbytes} bytes)"
        )
    chunk_size, _plan, (gathers, scalar_events), _scaled = batch._np_plan
    print(
        f"peel plan: {gathers} gather rounds over "
        f"{-(-len(events) // chunk_size)} chunks of {chunk_size} events "
        f"({scalar_events} scalar-fallback events), "
        f"cached on the batch (warm feeds replay it)"
    )

    # ----------------------------------------------------------------- #
    # 4. Kind-portable snapshots: vector session, fused restore.
    # ----------------------------------------------------------------- #
    blob = vector_stream.snapshot()
    restored = fused.restore_stream(blob)
    assert restored.all_verdicts() == vector_stream.all_verdicts()
    print(
        f"\nsnapshot: {len(blob) / 1024:.0f}KB from the vector session, "
        f"restored verdict-identical under the fused kernel"
    )


if __name__ == "__main__":
    main()
