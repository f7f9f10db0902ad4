"""Crash recovery walkthrough: journal every batch, lose the process, resume.

A monitor that watches a live migration-event stream accumulates verdict
state it cannot afford to lose: re-feeding a day of events after a crash
is exactly the cost the streaming engine exists to avoid.  The durable
session (:mod:`repro.engine.journal`) solves this with a write-ahead
journal plus periodic checkpoints.  This example

1. opens a **durable** stream session -- every fed batch is framed,
   CRC'd and flushed to a write-ahead log *before* it touches the
   in-memory session, and a checkpoint snapshot is cut every few
   thousand events,
2. feeds most of a banking event stream and then simulates a process
   crash: the process abandons the session without closing it and the
   last journal record is torn mid-write,
3. recovers the directory with ``engine.recover_stream`` -- the newest
   checkpoint is restored, the journal tail is replayed, and the torn
   record is truncated away,
4. shows that the recovered session holds **exactly the durable prefix**
   (every event whose append completed, none that was torn), and
5. resumes feeding from that prefix and ends verdict-identical to a
   monitor that never crashed.

Run with:  python examples/crash_recovery.py
"""

import glob
import os
import shutil
import tempfile

from repro.engine import HistoryCheckerEngine
from repro.workloads import generators

BATCH = 500
CHECKPOINT_EVERY = 4_000


def fresh_engine(suite):
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    return engine


def main() -> None:
    histories, events, suite = generators.conforming_banking_stream(
        seed=11, objects=2_000, mean_length=10
    )
    directory = tempfile.mkdtemp(prefix="repro-journal-")
    print(f"monitoring suite: {', '.join(suite)}")
    print(f"stream: {len(events)} events over {len(histories)} accounts")
    print(f"journal directory: {directory}\n")

    # ----------------------------------------------------------------- #
    # 1. + 2. A durable session, interrupted mid-stream.
    # ----------------------------------------------------------------- #
    engine = fresh_engine(suite)
    durable = engine.open_durable_stream(directory, checkpoint_every=CHECKPOINT_EVERY)
    # Crash ~60% in, one batch past a checkpoint: the tail segment then
    # holds exactly one event record for the torn write to land on.
    crash_at = (len(events) * 3 // 5) // CHECKPOINT_EVERY * CHECKPOINT_EVERY + BATCH
    for start in range(0, crash_at, BATCH):
        durable.feed_events(events[start : start + BATCH])
    stats = durable.stats()
    print(
        f"fed {durable.events_seen} events before the crash: "
        f"{stats['records']} journal records, {stats['checkpoints']} checkpoints, "
        f"{stats['bytes'] / 1024:.0f}KiB journaled"
    )

    # Process crash: no close(), and the write of the final record is torn.
    # (Every *completed* append was already flushed, so only the record
    # that was mid-write can be damaged -- that is the WAL guarantee.)
    tail = max(glob.glob(os.path.join(directory, "wal-*.log")))
    torn = os.path.getsize(tail) - 7
    os.truncate(tail, torn)
    del durable
    print(f"crash: session abandoned, {os.path.basename(tail)} torn at byte {torn}\n")

    # ----------------------------------------------------------------- #
    # 3. + 4. Recover: restore the newest checkpoint, replay the tail.
    # ----------------------------------------------------------------- #
    engine = fresh_engine(suite)  # a brand-new process would start here
    recovered = engine.recover_stream(directory)
    print(
        f"recovered {recovered.events_seen} events "
        f"({recovered.truncated_records} torn record dropped)"
    )
    assert recovered.events_seen == crash_at - BATCH, "durable prefix is exact"

    # The recovered state matches a monitor fed the same prefix directly.
    oracle = fresh_engine(suite).open_stream()
    oracle.feed_events(events[: recovered.events_seen])
    assert recovered.all_verdicts() == oracle.all_verdicts()
    print("verdicts match an uninterrupted monitor fed the same prefix\n")

    # ----------------------------------------------------------------- #
    # 5. Resume from the durable prefix and finish the stream.
    # ----------------------------------------------------------------- #
    for start in range(recovered.events_seen, len(events), BATCH):
        recovered.feed_events(events[start : start + BATCH])
    recovered.close()

    oracle.feed_events(events[oracle.events_seen :])
    assert recovered.all_verdicts() == oracle.all_verdicts()
    for name in suite:
        verdicts = recovered.verdicts(name)
        satisfied = sum(verdicts.values())
        print(f"  {name:<16} {satisfied}/{len(verdicts)} accounts conforming")
    print("\nfinal verdicts are identical to a run that never crashed")

    shutil.rmtree(directory)


if __name__ == "__main__":
    main()
