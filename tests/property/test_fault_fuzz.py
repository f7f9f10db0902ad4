"""Differential chaos fuzzing: crash, corrupt, kill -- verdicts never change.

Three seeded suites (90+ cases per tier-1 run; ``--fuzz-rounds`` multiplies
the counts for the nightly chaos job), all pinned to the same invariant:
whatever faults are injected, the surviving session's verdicts are
**identical** to an uninterrupted single-process oracle fed the same
durable prefix.

* **WAL crash/recover** -- seeded durable sessions crash at a random point
  with a randomly chosen corruption (clean crash, torn segment tail,
  bit-flipped segment, corrupted newest checkpoint); recovery must land on
  an exact event prefix, match the oracle over it, and keep streaming to
  the same final verdicts;
* **snapshot wire fuzz** -- random prefixes, bit flips, garbage and
  trailing junk over real snapshot blobs must raise
  :class:`~repro.engine.snapshot.SnapshotError` or restore cleanly --
  never ``struct.error``, ``zlib.error``, pickle errors or ``MemoryError``;
* **SIGKILL mid-stream** -- a subprocess feeding a durable session is
  SIGKILLed between batches; the parent recovers the journal, checks the
  durable prefix byte-for-byte against the oracle, resumes the stream, and
  (in the first case) re-checks the final verdicts against a batch check
  of the same histories.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys

import pytest

import repro
from repro.core.rolesets import enumerate_role_sets
from repro.engine import CursorTable, HistoryCheckerEngine, SnapshotError, compile_spec
from repro.testing.faults import bit_flip, corrupt_file, tear_file
from repro.workloads import generators

BASE_SEED = 0xFA17

WAL_CASES = 60
SNAPSHOT_CASES = 30
SIGKILL_CASES = 3

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_TEST_DIR = os.path.dirname(os.path.abspath(__file__))


def _random_case(seed):
    """``(name -> NFA, histories)`` -- a small seeded case."""
    rng = random.Random(seed)
    schema = generators.random_schema(classes=rng.choice([3, 4]), rng=rng)
    role_sets = list(enumerate_role_sets(schema))
    specs = {}
    for index in range(rng.choice([1, 2])):
        regex = generators.random_role_set_regex(schema, size=rng.choice([3, 4, 5]), rng=rng)
        specs[f"spec{index}"] = regex.to_nfa(role_sets)
    histories = [
        next(
            generators.random_histories(
                role_sets, objects=1, mean_length=rng.randrange(3, 8), rng=rng
            )
        )
        for _ in range(rng.randrange(5, 13))
    ]
    return specs, histories


def _stream_case(seed):
    """``(specs, events)`` -- the case plus its interleaved event stream."""
    specs, histories = _random_case(seed)
    events = generators.event_stream(histories, seed + 1)
    return specs, events


def _engine(specs, **kwargs):
    engine = HistoryCheckerEngine(**kwargs)
    for name, nfa in specs.items():
        engine.add_spec(name, nfa)
    return engine


def _stream_oracle(specs, events):
    """Verdicts of an uninterrupted per-spec cursor sweep over ``events``."""
    verdicts = {}
    for name, nfa in specs.items():
        spec = compile_spec(nfa)
        table = CursorTable()
        table.advance_events(spec, events)
        verdicts[name] = table.verdicts(spec)
    return verdicts


# --------------------------------------------------------------------------- #
# Suite 1: WAL crash / corrupt / recover
# --------------------------------------------------------------------------- #
def _run_wal_crash_case(seed, directory):
    rng = random.Random(seed)
    specs, events = _stream_case(seed)
    if rng.random() < 0.25:
        events = [(f"acct-{obj}", sym) for obj, sym in events]  # dict-mode ids
    batch = rng.choice([1, 3, 5, 8])
    checkpoint_every = rng.choice([None, 7, 13, 25])
    tag = f"seed={seed}"

    durable = _engine(specs).open_durable_stream(
        directory, checkpoint_every=checkpoint_every, retain=2
    )
    cut = rng.randrange(0, len(events) + 1)
    for start in range(0, cut, batch):
        durable.feed_events(events[start : min(start + batch, cut)])
    assert durable.events_seen == cut, tag
    if rng.random() < 0.5:
        durable.close()  # clean shutdown; else: abandoned handle, a crash

    scenario = rng.choice(["clean", "clean", "tear", "flip", "checkpoint"])
    checkpoints = sorted(n for n in os.listdir(directory) if n.endswith(".snap"))
    segments = sorted(n for n in os.listdir(directory) if n.endswith(".log"))
    if scenario == "checkpoint" and len(checkpoints) < 2:
        scenario = "clean"  # a lone generation cannot fall back
    if scenario == "tear":
        tear_file(os.path.join(directory, segments[-1]), drop=rng.randrange(1, 48))
    elif scenario == "flip":
        corrupt_file(os.path.join(directory, segments[-1]), seed=rng.randrange(1 << 30))
    elif scenario == "checkpoint":
        corrupt_file(os.path.join(directory, checkpoints[-1]), seed=rng.randrange(1 << 30))

    recovered = _engine(specs).recover_stream(
        directory, checkpoint_every=checkpoint_every, retain=2
    )
    fed = recovered.events_seen
    if scenario in ("clean", "checkpoint"):
        # Every append was flushed before the crash; nothing may vanish.
        assert fed == cut, (tag, scenario)
        assert recovered.truncated_records == 0, (tag, scenario)
    else:
        assert fed <= cut, (tag, scenario)
    # The recovered state is exactly the oracle's at the durable prefix ...
    assert recovered.all_verdicts() == _stream_oracle(specs, events[:fed]), (tag, scenario)
    # ... and the session is live: resuming the stream converges with the
    # uninterrupted run (the recovered prefix is a true prefix).
    recovered.feed_events(events[fed:])
    assert recovered.events_seen == len(events), (tag, scenario)
    assert recovered.all_verdicts() == _stream_oracle(specs, events), (tag, scenario)
    recovered.close()


def test_wal_crash_recover_fuzz(fuzz_rounds, tmp_path):
    for case in range(WAL_CASES * fuzz_rounds):
        _run_wal_crash_case(BASE_SEED + case, str(tmp_path / f"journal-{case}"))


# --------------------------------------------------------------------------- #
# Suite 2: snapshot wire fuzz
# --------------------------------------------------------------------------- #
#: The only exception restore may raise on malformed bytes.
_FORBIDDEN = "snapshot restore must raise SnapshotError, never {}: seed={} mutation={}"


def _run_snapshot_fuzz_case(seed):
    rng = random.Random(seed)
    specs, events = _stream_case(seed)
    engine = _engine(specs)
    stream = engine.open_stream(record=rng.random() < 0.5)
    stream.feed_events(events[: len(events) // 2])
    blob = stream.snapshot()
    engine.restore_stream(blob)  # sanity: the pristine blob restores

    for mutation in range(4):
        kind = rng.choice(["prefix", "flip", "flip", "garbage", "extend"])
        if kind == "prefix":
            mutated = blob[: rng.randrange(0, len(blob))]
        elif kind == "flip":
            mutated = bit_flip(blob, rng=rng, flips=rng.choice([1, 1, 1, 3]))
        elif kind == "garbage":
            mutated = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 64)))
        else:
            mutated = blob + bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 9)))
        if mutated == blob:
            continue
        try:
            engine.restore_stream(mutated)
        except SnapshotError:
            pass  # the contract: one exception type for every malformation
        except Exception as exc:  # noqa: BLE001 - the assertion under test
            pytest.fail(_FORBIDDEN.format(type(exc).__name__, seed, (mutation, kind)))


def test_snapshot_wire_fuzz_never_leaks_parser_errors(fuzz_rounds):
    for case in range(SNAPSHOT_CASES * fuzz_rounds):
        _run_snapshot_fuzz_case(BASE_SEED + 50_000 + case)


# --------------------------------------------------------------------------- #
# Suite 3: SIGKILL mid-stream, recover in the parent
# --------------------------------------------------------------------------- #
_CHILD_SCRIPT = """\
import os, signal, sys
sys.path.insert(0, sys.argv[5])
import test_fault_fuzz as chaos

seed, directory, cut, batch = int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
specs, events = chaos._stream_case(seed)
durable = chaos._engine(specs).open_durable_stream(directory, checkpoint_every=11)
for start in range(0, cut, batch):
    durable.feed_events(events[start : min(start + batch, cut)])
os.kill(os.getpid(), signal.SIGKILL)  # no close, no flush beyond the WAL's own
"""


def _sigkill_child(seed, directory, cut, batch):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD_SCRIPT,
            str(seed),
            directory,
            str(cut),
            str(batch),
            _TEST_DIR,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == -signal.SIGKILL, completed.stderr
    return completed


def _run_sigkill_case(seed, directory, with_batch_check):
    rng = random.Random(seed)
    specs, events = _stream_case(seed)
    batch = rng.choice([2, 3, 5])
    cut = rng.randrange(batch, len(events) + 1)
    _sigkill_child(seed, directory, cut, batch)

    recovered = _engine(specs).recover_stream(directory)
    # Appends flush per batch, so SIGKILL between batches loses exactly
    # nothing: the durable prefix is every event the child fed.
    assert recovered.events_seen == cut, f"seed={seed}"
    assert recovered.all_verdicts() == _stream_oracle(specs, events[:cut]), f"seed={seed}"
    recovered.feed_events(events[cut:])
    final = recovered.all_verdicts()
    assert final == _stream_oracle(specs, events), f"seed={seed}"
    recovered.close()

    if not with_batch_check:
        return
    # The same case's batch verdicts must agree with the recovered-and-
    # resumed stream.
    _specs, histories = _random_case(seed)
    batch_verdicts = _engine(specs).check_batch_all(histories)
    for name, verdicts in batch_verdicts.items():
        streamed = [final[name][index] for index in range(len(histories))]
        assert streamed == verdicts, (f"seed={seed}", name)


def test_sigkill_mid_stream_recovers_to_oracle_verdicts(fuzz_rounds, tmp_path):
    for case in range(SIGKILL_CASES * fuzz_rounds):
        _run_sigkill_case(
            BASE_SEED + 90_000 + case,
            str(tmp_path / f"journal-{case}"),
            with_batch_check=case == 0,
        )


def test_chaos_case_generator_is_deterministic():
    """Chaos cases are a function of the seed alone -- reruns reproduce."""
    specs_a, events_a = _stream_case(BASE_SEED)
    specs_b, events_b = _stream_case(BASE_SEED)
    assert events_a == events_b
    assert sorted(specs_a) == sorted(specs_b)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
