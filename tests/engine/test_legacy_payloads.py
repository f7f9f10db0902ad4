"""Payloads written by earlier builds: dense id spaces, list-packed columns,
object-list id spaces of sparse int ids.

Builds that had a dense interner mode serialized an identity id space (ids
``0..n-1`` that were their own codes) as ``("dense", n)`` -- in snapshots
and in every WAL record's object tail.  Builds with a pure-Python kernel
packed snapshot state and trace columns from Python lists: the narrowest
``array`` typecode, zlib level 1 when that was smaller.  Builds without a
hash index snapshotted sparse int id spaces (62-bit keys) as the dict
mode's ``("objects", [...])`` list.  The payloads here
are hand-built from current ones, then the snapshot or journal record is
re-framed with a fresh checksum.
"""

from __future__ import annotations

import os
import pickle
import random
import zlib
from array import array

import pytest

from repro.engine import HistoryCheckerEngine, ObjectInterner, SnapshotError
from repro.engine.batch import DENSE_WIRE_LIMIT
from repro.engine.journal import _FILE_HEADER, _FRAME, RT_EVENTS, _frame_record
from repro.engine.snapshot import _HEADER, FORMAT_VERSION, MAGIC
from repro.workloads import generators

BAD_COUNTS = [10**12, DENSE_WIRE_LIMIT + 1, -1, True, 2.0, "7", None]


def _identity_events(seed=5, objects=20):
    """A banking stream whose ids first appear in order 0, 1, 2, ..."""
    _histories, events, suite = generators.conforming_banking_stream(
        seed=seed, objects=objects, mean_length=8
    )
    renumber = {}
    for object_id, _symbol in events:
        renumber.setdefault(object_id, len(renumber))
    return [(renumber[o], symbol) for o, symbol in events], suite


def _engine(suite):
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    return engine


def _dense(objects_payload):
    interner = ObjectInterner.from_snapshot(objects_payload)
    assert [interner.object(code) for code in range(len(interner))] == list(range(len(interner)))
    return ("dense", len(interner))


def _frame_snapshot(body) -> bytes:
    payload = pickle.dumps(body, protocol=4)
    return MAGIC + _HEADER.pack(FORMAT_VERSION, len(payload), zlib.crc32(payload)) + payload


def _snapshot_body(blob: bytes):
    return pickle.loads(blob[4 + _HEADER.size :])


def _legacy_snapshot(blob: bytes, *count) -> bytes:
    """The snapshot with its id space as ``("dense", n)``; ``count``
    overrides the true ``n``."""
    body = _snapshot_body(blob)
    body["objects"] = ("dense", *count) if count else _dense(body["objects"])
    return _frame_snapshot(body)


def _rewrite_journal(directory, rewrite_objects):
    """Re-frame every checkpoint and WAL record with ``rewrite_objects``
    applied to its id-space payload (``before`` is ``None`` for checkpoints
    and the record's ``objects_before`` for WAL records)."""
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            data = handle.read()
        if name.endswith(".snap"):
            body = _snapshot_body(data)
            body["objects"] = rewrite_objects(body["objects"], None)
            data = _frame_snapshot(body)
        elif name.endswith(".log"):
            out, offset = [data[: len(_FILE_HEADER)]], len(_FILE_HEADER)
            while offset < len(data):
                length, _crc, rtype = _FRAME.unpack_from(data, offset)
                body = data[offset + _FRAME.size : offset + _FRAME.size + length]
                offset += _FRAME.size + length
                if rtype == RT_EVENTS:
                    record = pickle.loads(body)
                    kind, tail = record["objects"]
                    before = record["objects_before"]
                    record["objects"] = rewrite_objects((kind, list(range(before)) + tail), before)
                    body = pickle.dumps(record, protocol=4)
                out.append(_frame_record(rtype, body))
            data = b"".join(out)
        with open(path, "wb") as handle:
            handle.write(data)


#: The list-column packer's typecode ladder, narrowest first.
_LIST_TYPECODES = (("B", 0xFF), ("H", 0xFFFF), ("I", 0xFFFFFFFF), ("q", (1 << 63) - 1))


def _list_packed(values, flag):
    """``values`` packed as the list-column writer did: the narrowest
    ``array`` typecode, raw (flag 0) or zlib level 1 (flag 1)."""
    high = max(values, default=0)
    typecode = next(code for code, top in _LIST_TYPECODES if high <= top)
    raw = array(typecode, values).tobytes()
    return (typecode, 1, zlib.compress(raw, 1)) if flag else (typecode, 0, raw)


def _list_unpacked(packed):
    typecode, flag, data = packed
    column = array(typecode)
    column.frombytes(zlib.decompress(data) if flag else data)
    return column.tolist()


def _list_written(values):
    """The list-column writer's choice: compressed only when smaller."""
    raw, compressed = _list_packed(values, 0), _list_packed(values, 1)
    return compressed if len(compressed[2]) < len(raw[2]) else raw


def _packed_columns(body):
    """Every packed state and trace column of a snapshot body, as
    ``(container, key)`` slots."""
    slots = [(group, "column") for group in body["groups"]]
    traces = body["traces"]
    slots += [(traces, "lengths"), (traces, "codes")]
    slots += [(traces["marks"], name) for name in traces["marks"]]
    return slots


def test_list_packed_snapshot_columns_restore_to_the_same_verdicts():
    """Group and trace columns in the list writer's layout -- raw and
    zlib-compressed -- restore to the same verdicts and ``explain`` reports,
    and the current writer emits exactly the bytes the list writer did."""
    _histories, events, suite = generators.conforming_banking_stream(
        seed=3, objects=40, mean_length=10, noise=0.2
    )
    # One object with a 300-event trace widens the trace-length column to "H".
    events = [("long", events[0][1])] * 300 + list(events)
    half = len(events) // 2
    engine = _engine(suite)
    live = engine.open_stream(record=True)
    live.feed_events(events[: half // 2])
    reset = next(iter(suite))
    engine.add_spec(reset, suite[reset])  # a reset: the snapshot carries trace marks
    live.feed_events(events[half // 2 : half])
    blob = live.snapshot()
    body = _snapshot_body(blob)
    slots = _packed_columns(body)
    assert len(body["groups"]) == 1 and list(body["traces"]["marks"]) == [reset]
    assert {container[key][0] for container, key in slots} == {"B", "H"}
    for container, key in slots:
        assert container[key] == _list_written(_list_unpacked(container[key])), key
    live.feed_events(events[half:])
    failing = {name: live.explain_all(name) for name in suite}
    assert any(failing.values())
    for flag in (0, 1):
        legacy = _snapshot_body(blob)
        for container, key in _packed_columns(legacy):
            container[key] = _list_packed(_list_unpacked(container[key]), flag)
        restored = _engine(suite).restore_stream(_frame_snapshot(legacy))
        assert restored.reset_on_restore == ()
        restored.feed_events(events[half:])
        assert restored.all_verdicts() == live.all_verdicts(), flag
        for name in suite:
            assert restored.explain_all(name) == failing[name], (flag, name)


def test_legacy_dense_snapshot_restores_and_keeps_streaming():
    events, suite = _identity_events()
    half = len(events) // 2
    live = _engine(suite).open_stream()
    live.feed_events(events[:half])
    restored = _engine(suite).restore_stream(_legacy_snapshot(live.snapshot()))
    assert len(restored.object_interner) == len(live.object_interner)
    assert restored.all_verdicts() == live.all_verdicts()
    for stream in (live, restored):
        stream.feed_events(events[half:])
    assert restored.all_verdicts() == live.all_verdicts()
    assert [restored.object_interner.code_of(i) for i in range(20)] == list(range(20))


def test_legacy_dense_journal_recovers(tmp_path):
    events, suite = _identity_events(seed=9)
    durable = _engine(suite).open_durable_stream(tmp_path, checkpoint_every=None)
    for start in range(0, len(events), 15):
        durable.feed_events(events[start : start + 15])
    durable.checkpoint()  # a dense checkpoint followed by dense tail records
    for start in range(0, len(events), 15):
        durable.feed_events([(o + 20, symbol) for o, symbol in events[start : start + 15]])
    verdicts, fed = durable.all_verdicts(), durable.events_seen
    durable.close()
    _rewrite_journal(tmp_path, lambda payload, _before: _dense(payload))
    recovered = _engine(suite).recover_stream(tmp_path)
    assert recovered.truncated_records == 0
    assert recovered.events_seen == fed
    assert recovered.all_verdicts() == verdicts


@pytest.mark.parametrize("count", BAD_COUNTS)
def test_corrupt_dense_counts_raise_before_allocating(count):
    with pytest.raises(ValueError, match="dense id-space payload"):
        ObjectInterner.from_snapshot(("dense", count))
    interner = ObjectInterner()
    with pytest.raises(ValueError, match="dense id-space payload"):
        interner.extend_tail(("dense", count), 0)
    assert len(interner) == 0


@pytest.mark.parametrize("count", BAD_COUNTS)
def test_corrupt_dense_snapshot_count_is_a_snapshot_error(count):
    events, suite = _identity_events()
    live = _engine(suite).open_stream()
    live.feed_events(events)
    with pytest.raises(SnapshotError):
        _engine(suite).restore_stream(_legacy_snapshot(live.snapshot(), count))


def test_corrupt_dense_journal_tail_is_truncated(tmp_path):
    events, suite = _identity_events(seed=11)
    durable = _engine(suite).open_durable_stream(tmp_path, checkpoint_every=None)
    batches = [events[start : start + 15] for start in range(0, len(events), 15)]
    kept = len(batches) // 2
    for batch in batches:
        durable.feed_events(batch)
    durable.close()
    prefix = _engine(suite).open_stream()
    prefix.feed_events(events[: 15 * kept])
    records = []

    def rewrite(payload, before):
        if before is not None:
            records.append(before)
            if len(records) == kept + 1:
                return ("dense", 10**12)  # a corrupt count mid-tail
        return _dense(payload)

    _rewrite_journal(tmp_path, rewrite)
    recovered = _engine(suite).recover_stream(tmp_path)
    assert recovered.truncated_records == 1
    assert recovered.events_seen == 15 * kept
    assert recovered.all_verdicts() == prefix.all_verdicts()


def test_dense_tail_needs_an_identity_id_space():
    interner = ObjectInterner()
    interner.intern_column(["acct-1", "acct-2"])
    with pytest.raises(ValueError, match="identity"):
        interner.extend_tail(("dense", 5), 2)
    shuffled = ObjectInterner()
    shuffled.intern_column([1, 0])
    with pytest.raises(ValueError, match="identity"):
        shuffled.extend_tail(("dense", 5), 2)
    identity = ObjectInterner.from_snapshot(("dense", 3))
    identity.extend_tail(("dense", 5), 3)
    assert identity.intern_column([4, 0, 5]) == [4, 0, 5]


def _sparse_events(seed, objects=30):
    """A banking stream over random 62-bit ids plus one negative id."""
    _histories, events, suite = generators.conforming_banking_stream(
        seed=seed, objects=objects, mean_length=8, noise=0.2
    )
    keys = random.Random(seed).sample(range(1 << 62), objects)
    keys[0] = -keys[0]
    return [(keys[o], symbol) for o, symbol in events], suite


def _id_space(stream):
    interner = stream.object_interner
    return [interner.object(code) for code in range(len(interner))]


def _objects_payload(payload):
    """A current id-space payload in the dict-mode writer's layout: the
    object list, as builds without a hash index wrote sparse int ids."""
    interner = ObjectInterner.from_snapshot(payload)
    return ("objects", [interner.object(code) for code in range(len(interner))])


def test_hash_mode_snapshots_use_the_packed_ids_kind():
    """A sparse-int id space snapshots as ``("ids", packed)`` -- the kind and
    typecodes earlier readers accept -- in code order, signed ``"q"``."""
    events, suite = _sparse_events(seed=4)
    live = _engine(suite).open_stream()
    live.feed_events(events)
    assert live.object_interner._table is not None
    kind, packed = _snapshot_body(live.snapshot())["objects"]
    assert kind == "ids"
    assert packed[0] == "q" and packed[1] == 0 and isinstance(packed[2], bytes)
    assert _list_unpacked(packed) == _id_space(live)


def test_dict_mode_sparse_snapshot_and_journal_recover_into_hash_mode(tmp_path):
    """Snapshots and WAL tails that carry 62-bit ids as object lists (the
    dict-mode layout) restore and recover into the hash index with the same
    codes and verdicts."""
    events, suite = _sparse_events(seed=8)
    half = len(events) // 2
    live = _engine(suite).open_stream()
    live.feed_events(events[:half])
    body = _snapshot_body(live.snapshot())
    body["objects"] = _objects_payload(body["objects"])
    restored = _engine(suite).restore_stream(_frame_snapshot(body))
    assert restored.object_interner._table is not None
    assert _id_space(restored) == _id_space(live)
    for stream in (live, restored):
        stream.feed_events(events[half:])
    assert _id_space(restored) == _id_space(live)
    assert restored.all_verdicts() == live.all_verdicts()

    durable = _engine(suite).open_durable_stream(tmp_path, checkpoint_every=None)
    for start in range(0, half, 15):
        durable.feed_events(events[start : min(start + 15, half)])
    durable.checkpoint()  # a checkpoint followed by object-list tail records
    for start in range(half, len(events), 15):
        durable.feed_events(events[start : start + 15])
    verdicts, fed, space = durable.all_verdicts(), durable.events_seen, _id_space(durable.stream)
    durable.close()

    def rewrite(payload, before):
        if before is None:
            return _objects_payload(payload)
        kind, objects = payload
        assert kind == "objects"
        return kind, objects[before:]

    _rewrite_journal(tmp_path, rewrite)
    recovered = _engine(suite).recover_stream(tmp_path)
    assert recovered.truncated_records == 0
    assert recovered.stream.object_interner._table is not None
    assert recovered.events_seen == fed
    assert _id_space(recovered.stream) == space
    assert recovered.all_verdicts() == verdicts
