"""Unit tests for the columnar pipeline: interner, batches, history sets, kernel.

Also pins the two satellite fixes of the columnar PR: ``feed_events`` counts
events (and bumps ``events_seen``) with zero registered specs, and
``HistoryCursor.advance_many`` runs the hoisted sweep instead of re-entering
``advance`` per event.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    PRODUCT_STATE_CAP,
    ColumnarHistorySet,
    EnforcementError,
    EncodedBatch,
    HistoryCheckerEngine,
    HistoryCursor,
    ObjectInterner,
    compile_spec,
)
from repro.formal.alphabet import RoleSetAlphabet
from repro.workloads import banking, generators


class TestObjectInterner:
    def test_int_ids_get_first_appearance_codes(self):
        interner = ObjectInterner()
        assert interner.intern_column([0, 2, 1, 2, 0]) == [0, 1, 2, 1, 0]
        assert len(interner) == 3
        assert interner.intern_column([4, 3, 0]) == [3, 4, 0]
        assert len(interner) == 5
        assert [interner.object(code) for code in range(5)] == [0, 2, 1, 4, 3]
        assert interner.code_of(4) == 3

    def test_sparse_or_non_int_ids_fall_back_to_dict_interning(self):
        interner = ObjectInterner()
        assert interner.intern_column([0, 1]) == [0, 1]
        column = interner.intern_column(["acct-9", 1, "acct-9"])
        assert column == [2, 1, 2]
        assert interner.object(2) == "acct-9"
        assert interner.code_of("acct-9") == 2
        assert interner.code_of("unseen") == -1
        # Ids handed out before the fallback stay valid.
        assert interner.intern(0) == 0
        assert interner.code_of(1) == 1

    def test_single_intern_grows_the_dense_prefix(self):
        interner = ObjectInterner()
        assert [interner.intern(i) for i in (0, 1, 2, 1)] == [0, 1, 2, 1]
        assert len(interner) == 3
        assert interner.intern(10) == 3  # a gap is just another fresh id
        assert interner.object(3) == 10

    def test_sparse_ints_take_the_hash_index_others_the_dict(self):
        interner = ObjectInterner()
        codes = interner.encode_column([60_000, 5, 60_000])
        assert codes.dtype == np.int64 and codes.tolist() == [0, 1, 0]
        assert interner._slots is not None and interner._table is None
        # The caller's own id objects are kept, not fresh ints.
        big = int("1001")  # not a cached small int
        interner.encode_column([big])
        assert interner.object(2) is big
        sparse = (1 << 62) + 3
        codes = interner.encode_column([sparse, 5, -7, sparse])  # past the bound: hash index
        assert codes.dtype == np.int64 and codes.tolist() == [3, 1, 4, 3]
        assert interner._slots is None and interner._table is not None
        assert interner.object(3) is sparse
        assert interner.intern_column([6, 60_000]) == [5, 0]
        assert interner._slots is None and interner._codes is None  # sticky
        assert interner.intern_column(["acct-9", 5]) == [6, 1]  # not an int: dict from now on
        assert interner._table is None and interner._keys is None
        assert interner.intern_column([sparse, 7]) == [3, 7]
        assert interner._codes is not None and interner._table is None

    def test_the_slot_table_bound_hands_over_to_the_hash_index(self):
        from repro.engine.batch import _SLOT_FACTOR, _SLOT_FLOOR

        interner = ObjectInterner()
        interner.intern_column(list(range(1000)))
        assert len(interner._slots) <= _SLOT_FLOOR + _SLOT_FACTOR * 1000
        # 20 events but one fresh object: the table it would need is past
        # the bound for 1001 objects, so the interner hands over to the
        # hash index, at most half full.
        high = _SLOT_FLOOR + _SLOT_FACTOR * 1001 + 10
        codes = interner.encode_column([high] * 20)
        assert codes.dtype == np.int64 and codes.tolist() == [1000] * 20
        assert interner._slots is None and interner._codes is None
        assert 2 * 1001 <= len(interner._table) <= 4 * max(1001, 1 << 10)
        assert interner.code_of(high) == 1000 and interner.code_of(999) == 999

    def test_a_sparse_column_past_the_post_intern_bound_keeps_its_codes(self):
        # Each id alone fits the pre-intern bound (len(ids) fresh slots of
        # headroom), but the duplicates leave the table past the exact one.
        from repro.engine.batch import _SLOT_FACTOR, _SLOT_FLOOR

        interner = ObjectInterner()
        high = _SLOT_FLOOR + _SLOT_FACTOR * 5
        codes = interner.encode_column([high, 3] * 5)
        assert codes.tolist() == [0, 1] * 5
        assert interner._slots is None and interner._table is not None
        assert interner.intern_column([3, high, 4]) == [1, 0, 2]

    def test_code_of_returns_the_default_for_unseen_in_range_ids(self):
        interner = ObjectInterner()
        interner.intern_column([3, 9])
        assert interner.code_of(4, default=-7) == -7
        assert interner.code_of(0, None) is None
        assert interner.code_of(9) == 1
        assert interner.code_of(True, -7) == -7
        interner.intern(1)
        assert interner.code_of(True) == interner.code_of(1.0) == 2

    def test_hash_mode_code_of_keeps_dict_semantics(self):
        big = (1 << 62) + 5  # hash(big) != big: past the hash modulus 2**61 - 1
        interner = ObjectInterner()
        interner.intern_column([big, 1, -1, (1 << 63) - 1, -(1 << 63)])
        assert interner._table is not None
        assert hash(big) != big and hash(-1) == -2
        for probe, code in [(big, 0), (1, 1), (-1, 2), ((1 << 63) - 1, 3), (-(1 << 63), 4)]:
            assert interner.code_of(probe) == code
            assert interner.code_of(np.int64(probe)) == code
        assert interner.code_of(True) == interner.code_of(1.0) == 1
        assert interner.code_of(-1.0) == 2
        assert interner.code_of(False, "unseen") == "unseen"
        assert interner.code_of(1.5) == interner.code_of("1") == interner.code_of(None) == -1
        assert interner.code_of(float("nan")) == interner.code_of(float("inf")) == -1
        assert interner.code_of(big + (1 << 64)) == interner.code_of(1 << 64) == -1
        assert interner.code_of(np.uint64(big)) == 0

    def test_sparse_int_ids_pack_signed_and_restore_in_hash_mode(self):
        from repro.engine.batch import _pack_array, _unpack_ints

        for values, typecode in [
            ([0, 255], "B"),
            ([70_000], "I"),
            ([-1, 3], "q"),
            ([-(1 << 63)], "q"),
        ]:
            packed = _pack_array(np.asarray(values, dtype=np.int64))
            assert packed[0] == typecode
            assert _unpack_ints(packed, 1 << 20).tolist() == values
        ids = [(1 << 62) + 9, -5, 17, -(1 << 63)]
        interner = ObjectInterner()
        interner.intern_column(ids)
        kind, packed = interner.to_snapshot()
        assert kind == "ids" and packed[0] == "q"
        restored = ObjectInterner.from_snapshot((kind, packed))
        assert restored._table is not None
        assert [restored.object(code) for code in range(4)] == ids
        assert [restored.code_of(i) for i in ids] == [0, 1, 2, 3]


_SMALL = st.integers(min_value=0, max_value=40)
_INT64_ID = st.one_of(
    _SMALL,
    st.integers(min_value=0, max_value=(1 << 62) - 1),  # sparse 62-bit keys
    st.integers(min_value=-5, max_value=-1),
    st.sampled_from([(1 << 63) - 1, -(1 << 63), -(1 << 62), 1 << 40]),  # int64 extremes
    st.integers(min_value=0, max_value=60).map(lambda k: k << 40),  # shared low bits
    st.integers(min_value=0, max_value=60).map(lambda k: (k << 10) + 7),  # equal mod table size
)
_ANY_ID = st.one_of(
    _INT64_ID,
    st.integers(min_value=0, max_value=200_000),  # gaps past the slot floor
    st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 70, -(1 << 70)]),  # past int64
    st.booleans(),
    st.sampled_from(["a", "b", "acct-9"]),
)
_COLUMN = st.one_of(
    st.lists(_SMALL, max_size=25),
    st.lists(_INT64_ID, max_size=30),
    st.lists(_ANY_ID, max_size=12),
)
_STEP = st.one_of(_COLUMN, _ANY_ID.map(lambda object_id: ("one", object_id)))


def _forced(mode: str) -> ObjectInterner:
    interner = ObjectInterner()
    if mode == "hash":
        interner._to_hash_mode()
    elif mode == "dict":
        interner._to_dict_mode()
    return interner


def _state(interner: ObjectInterner):
    """Everything observable: types too, so ``True`` and ``1`` differ."""
    return [(type(o), o) for o in map(interner.object, range(len(interner)))]


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_STEP, max_size=8), probes=st.lists(_ANY_ID, max_size=10), data=st.data())
def test_slot_hash_and_dict_interners_are_indistinguishable(steps, probes, data):
    interners = [_forced(mode) for mode in ("slot", "hash", "dict")]
    plain = interners[-1]
    for step in steps:
        if isinstance(step, tuple):
            assert len({interner.intern(step[1]) for interner in interners}) == 1
        else:
            assert len({tuple(interner.intern_column(step)) for interner in interners}) == 1
        for interner in interners:
            assert _state(interner) == _state(plain)
    probes = probes + [41, 199_999, 7.0, -1.0, 1 << 64]
    expected = [plain.code_of(probe, "unseen") for probe in probes]
    for interner in interners:
        assert [interner.code_of(probe, "unseen") for probe in probes] == expected
    for source in interners:
        restored = ObjectInterner.from_snapshot(source.to_snapshot())
        assert _state(restored) == _state(plain)
        assert [restored.code_of(probe, "unseen") for probe in probes] == expected
    start = data.draw(st.integers(min_value=0, max_value=len(plain)))
    for source in interners:
        prefix = [source.object(code) for code in range(start)]
        replay = ObjectInterner.from_snapshot(("objects", prefix))
        replay.extend_tail(source.tail(start), start)
        assert _state(replay) == _state(plain)
        assert [replay.code_of(probe, "unseen") for probe in probes] == expected


def test_shared_low_bit_ids_intern_in_few_probe_rounds():
    """10**5 ids ``k << 40`` (all low 40 bits equal) spread over the code
    table: no id sits more than a few slots past its home, so every
    lookup resolves in a bounded number of probe rounds."""
    from repro.engine.batch import _home_slots

    ids = [k << 40 for k in range(100_000)]
    interner = ObjectInterner()
    for start in range(0, len(ids), 20_000):
        chunk = ids[start : start + 20_000]
        assert interner.intern_column(chunk) == list(range(start, start + 20_000))
    table = interner._table
    assert table is not None and len(table) >= 2 * len(ids)
    held = np.flatnonzero(table >= 0)
    assert held.size == len(ids)
    slot_of = np.empty(len(ids), dtype=np.intp)
    slot_of[table[held]] = held
    displacement = (slot_of - _home_slots(np.asarray(ids), len(table))) & (len(table) - 1)
    assert int(displacement.max()) + 1 <= 8
    assert [interner.code_of(i) for i in ids[::997]] == list(range(0, 100_000, 997))


def test_duplicate_array_payloads_are_refused_before_interning():
    for ids in ([3, 4], [(1 << 62) + 1, -2]):
        interner = ObjectInterner()
        interner.intern_column(ids)
        before = (_state(interner), interner.to_snapshot())
        for payload in ([ids[0] + 10, ids[0] + 10], [ids[1]], [ids[0] + 11, ids[1]]):
            with pytest.raises(ValueError, match="repeats an id"):
                interner.extend_tail(("objects", payload), 2)
            with pytest.raises(ValueError, match="repeats an id"):
                interner._append_fresh(np.asarray(payload))  # the snapshot column path
            assert (_state(interner), interner.to_snapshot()) == before
        interner.extend_tail(("objects", [ids[0] + 10]), 2)
        assert interner.code_of(ids[0] + 10) == 2


class TestEncodedBatch:
    def test_encode_once_round_trips_through_the_alphabet(self):
        alphabet = RoleSetAlphabet()
        events = [(0, banking.ROLE_INTEREST), (1, banking.ROLE_REGULAR), (0, banking.ROLE_INTEREST)]
        batch = EncodedBatch.from_events(events, alphabet)
        assert len(batch) == 3
        assert batch.id_list == [0, 1, 0]
        assert batch.code_list[0] == batch.code_list[2] != batch.code_list[1]
        assert [alphabet.symbol(code) for code in batch.code_list] == [
            banking.ROLE_INTEREST,
            banking.ROLE_REGULAR,
            banking.ROLE_INTEREST,
        ]
        assert batch.max_id == 1

    def test_alphabet_is_append_only_across_batches(self):
        alphabet = RoleSetAlphabet()
        first = EncodedBatch.from_events([(0, banking.ROLE_INTEREST)], alphabet)
        version = alphabet.version
        second = EncodedBatch.from_events([(0, banking.ROLE_REGULAR)], alphabet)
        assert alphabet.version > version
        assert first.code_list[0] != second.code_list[0]
        assert alphabet.encode(banking.ROLE_INTEREST) == first.code_list[0]


def _layout_run(product_cap, layout, policy, directory):
    """Feed one event stream through a recording durable stream, every batch
    built in ``layout``; returns everything observable about the session."""
    _histories, events, suite = generators.conforming_banking_stream(
        seed=7, objects=24, mean_length=10
    )
    alien = banking.RoleSet({"ALIEN_CLASS"})  # outside every spec: always refused
    events = list(events)
    for position in range(17, len(events), 53):
        events.insert(position, (position % 24, alien))

    def new_engine():
        engine = HistoryCheckerEngine(product_cap=product_cap)
        for name, spec in suite.items():
            engine.add_spec(name, spec)
        return engine

    engine = new_engine()
    durable = engine.open_durable_stream(directory, checkpoint_every=None, record=True)
    interner = durable.stream.object_interner
    columns, rejected = [], []
    for start in range(0, len(events), 40):
        encoded = engine.encode_events(events[start : start + 40], interner)
        if layout == "array":
            batch = EncodedBatch(
                np.asarray(encoded.id_list),
                np.asarray(encoded.code_list),
                interner,
                engine.alphabet,
            )
            assert batch._id_list is None and batch._code_list is None
        elif layout == "list":
            batch = EncodedBatch(
                list(encoded.id_list), list(encoded.code_list), interner, engine.alphabet
            )
            assert batch._np_ids is None and batch._np_codes is None
        else:
            batch = encoded
        columns.append((batch.id_list, batch.code_list))
        if policy == "reject_event":
            report = durable.feed_events(batch, enforce=True)
            rejected.extend(
                (start + r.index, r.object_id, r.symbol, r.blocked_specs) for r in report.rejected
            )
            continue
        try:
            durable.feed_events(batch, enforce=True, policy=policy)
        except EnforcementError as error:
            rejected.append((start + error.index, error.object_id, error.symbol))
    stream = durable.stream
    observed = {
        "verdicts": durable.all_verdicts(),
        "events_seen": durable.events_seen,
        "traces": {obj: stream.history(obj) for obj in stream.objects()},
        "rejected": rejected,
        "columns": columns,
    }
    durable.close()
    recovered = new_engine().recover_stream(directory)
    assert recovered.events_seen == observed["events_seen"]
    assert recovered.all_verdicts() == observed["verdicts"]
    assert {obj: recovered.stream.history(obj) for obj in stream.objects()} == observed["traces"]
    recovered.close()
    return observed


#: The default product cap (one group for the banking suite) and one that
#: splits the suite into several groups.
GROUPINGS = {"vector": PRODUCT_STATE_CAP, "vector-split": 8}


@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("policy", ["reject_event", "reject_batch"])
def test_ndarray_and_list_batches_are_interchangeable(grouping, policy, tmp_path):
    runs = {
        layout: _layout_run(GROUPINGS[grouping], layout, policy, tmp_path / layout)
        for layout in ("array", "list", "encoded")
    }
    assert runs["array"]["rejected"]  # the alien events were screened out
    assert runs["array"] == runs["list"] == runs["encoded"]


class TestColumnarHistorySet:
    def test_offsets_cover_histories_exactly(self):
        alphabet = RoleSetAlphabet()
        histories, _events = generators.banking_event_stream(seed=5, objects=40, mean_length=5)
        history_set = ColumnarHistorySet.from_histories(histories, alphabet)
        assert len(history_set) == len(histories)
        assert np.diff(history_set.offset_array).tolist() == [len(h) for h in histories]
        start, stop = history_set.offsets[3], history_set.offsets[4]
        assert [alphabet.symbol(code) for code in history_set.code_list[start:stop]] == list(
            histories[3]
        )


class TestFusedEngineSurface:
    def test_check_batch_all_selects_names(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
        histories, _events = generators.banking_event_stream(seed=11, objects=60, mean_length=5)
        everything = engine.check_batch_all(histories)
        assert set(everything) == {"checking", "no_downgrade"}
        only = engine.check_batch_all(histories, names=["checking"])
        assert set(only) == {"checking"}
        assert only["checking"] == everything["checking"]
        assert engine.check_batch_all(histories, names=[]) == {}

    def test_check_batch_all_unknown_name_raises(self):
        engine = HistoryCheckerEngine()
        with pytest.raises(KeyError):
            engine.check_batch_all([], names=["nope"])

    def test_two_engines_with_same_spec_names_never_share_kernels(self):
        # Kernels are cached per engine by (name, generation); two engines
        # using the same spec *name* for different languages must not collide.
        first = HistoryCheckerEngine()
        first.add_spec("spec", banking.checking_role_inventory())
        second = HistoryCheckerEngine()
        second.add_spec("spec", banking.no_downgrade_inventory())
        histories = [(banking.ROLE_INTEREST, banking.ROLE_REGULAR)] * 4  # IC then RC

        results = [engine.check_batch_all(histories)["spec"] for engine in (first, second)]
        assert first._kernel_for(("spec",)) is not second._kernel_for(("spec",))
        assert results[0] == [True] * 4  # checking allows IC RC
        assert results[1] == [False] * 4  # no_downgrade forbids RC after IC

    def test_foreign_alphabet_history_sets_are_rejected(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        foreign = RoleSetAlphabet()
        history_set = ColumnarHistorySet.from_histories([(banking.ROLE_INTEREST,)], foreign)
        with pytest.raises(ValueError, match="alphabet"):
            engine.check_batch_all(history_set)

    def test_foreign_alphabet_batches_are_rejected(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        foreign = RoleSetAlphabet()
        batch = EncodedBatch.from_events([(0, banking.ROLE_INTEREST)], foreign)
        stream = engine.open_stream()
        with pytest.raises(ValueError, match="alphabet"):
            stream.feed_events(batch)

    def test_foreign_id_space_batches_are_rejected_once_the_stream_has_one(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        stream = engine.open_stream()
        stream.feed(7, banking.ROLE_INTEREST)
        batch = engine.encode_events([(0, banking.ROLE_INTEREST)])  # fresh interner
        with pytest.raises(ValueError, match="object-id space"):
            stream.feed_events(batch)


class TestSatelliteFixes:
    def test_feed_events_counts_events_with_zero_specs(self):
        engine = HistoryCheckerEngine()
        stream = engine.open_stream([])
        events = [(0, banking.ROLE_INTEREST), (1, banking.ROLE_REGULAR)]
        assert stream.feed_events(events) == 2
        assert stream.events_seen == 2
        assert stream.feed_events(iter(events)) == 2
        assert stream.events_seen == 4

    def test_feed_events_returns_the_batch_length_not_a_sweep_count(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
        stream = engine.open_stream()
        events = [(0, banking.ROLE_INTEREST)] * 5
        assert stream.feed_events(events) == 5
        assert stream.events_seen == 5

    def test_advance_many_equals_per_event_advance(self):
        spec = compile_spec(banking.checking_role_inventory().automaton)
        words = [
            (banking.ROLE_INTEREST, banking.ROLE_REGULAR, banking.ROLE_INTEREST),
            (banking.ROLE_ACCOUNT, banking.ROLE_INTEREST),  # dooms at event one
            (),
            tuple(banking.ROLE_SETS) * 3,
        ]
        for word in words:
            bulk = HistoryCursor(spec).advance_many(word)
            single = HistoryCursor(spec)
            for symbol in word:
                single.advance(symbol)
            assert bulk.state == single.state
            assert bulk.accepted == single.accepted
            assert bulk.events_seen == single.events_seen == len(word)

    def test_advance_many_accepts_iterators(self):
        spec = compile_spec(banking.checking_role_inventory().automaton)
        cursor = HistoryCursor(spec).advance_many(iter([banking.ROLE_INTEREST] * 4))
        assert cursor.events_seen == 4
        assert cursor.accepted
