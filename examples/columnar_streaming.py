"""Columnar streaming walkthrough: encode once, check every spec in one pass.

The columnar event pipeline (:mod:`repro.engine.batch`) is how the engine
checks millions of migration events per second against a whole monitoring
suite at once.  This example

1. registers six simultaneous account constraints (the banking monitoring
   suite) with one :class:`repro.engine.HistoryCheckerEngine`,
2. encodes a mostly-conforming event stream **once** against the engine's
   shared role-set alphabet -- after which no frozenset is ever hashed
   again,
3. feeds the pre-encoded batch to a stream session whose fused product
   kernel advances all six specs in a single pass per event, and
4. re-registers one spec mid-stream (only its histories restart).

Run with:  python examples/columnar_streaming.py
"""

import time

from repro.engine import HistoryCheckerEngine
from repro.workloads import banking, generators


def main() -> None:
    # ----------------------------------------------------------------- #
    # 1. One engine, six specs.
    # ----------------------------------------------------------------- #
    histories, events, suite = generators.conforming_banking_stream(
        seed=7, objects=2_000, mean_length=10
    )
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    print(f"monitoring suite: {', '.join(suite)}")
    print(f"stream: {len(events)} events over {len(histories)} accounts\n")

    # ----------------------------------------------------------------- #
    # 2. + 3. Encode once, then one fused pass for all six specs.
    # ----------------------------------------------------------------- #
    stream = engine.open_stream()
    start = time.perf_counter()
    batch = engine.encode_events(events, objects=stream.object_interner)
    stream.feed_events(batch)
    elapsed = time.perf_counter() - start
    kernel = engine._kernel_for(tuple(suite))
    print(f"encode + fused sweep: {elapsed * 1000:.1f}ms with {kernel!r}")
    for name in suite:
        verdicts = stream.verdicts(name)
        satisfied = sum(verdicts.values())
        print(f"  {name:<16} {satisfied}/{len(verdicts)} accounts conforming")

    # ----------------------------------------------------------------- #
    # 4. Re-register one spec mid-stream: only its histories restart.
    # ----------------------------------------------------------------- #
    engine.add_spec("no_downgrade", banking.checking_role_inventory())
    stream.feed_events([(0, banking.ROLE_INTEREST)])
    print(
        f"\nafter re-registering no_downgrade: "
        f"{len(stream.verdicts('no_downgrade'))} account(s) tracked for it, "
        f"{len(stream.verdicts('checking_roles'))} still tracked for checking_roles"
    )


if __name__ == "__main__":
    main()
