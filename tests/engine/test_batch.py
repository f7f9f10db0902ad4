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

    def test_int_columns_take_the_slot_table_and_the_dict_fallback_is_sticky(self):
        interner = ObjectInterner()
        codes = interner.encode_column([60_000, 5, 60_000])
        assert codes.dtype == np.int64 and codes.tolist() == [0, 1, 0]
        assert interner._slots is not None and interner._codes is None
        # The caller's own id objects are kept, not fresh ints.
        big = int("1001")  # not a cached small int
        interner.encode_column([big])
        assert interner.object(2) is big
        interner.intern_column([1 << 40])  # past the bound: dict from now on
        assert interner._slots is None and interner._codes is not None
        assert interner.intern_column([6, 5]) == [4, 1]
        assert interner._slots is None

    def test_the_slot_table_stays_within_its_bound(self):
        from repro.engine.batch import _SLOT_FACTOR, _SLOT_FLOOR

        interner = ObjectInterner()
        interner.intern_column(list(range(1000)))
        assert len(interner._slots) <= _SLOT_FLOOR + _SLOT_FACTOR * 1000
        # 20 events but one fresh object: the table it would need is past
        # the bound for 1001 objects, so the interner hands over to the dict.
        high = _SLOT_FLOOR + _SLOT_FACTOR * 1001 + 10
        assert interner.intern_column([high] * 20) == [1000] * 20
        assert interner._slots is None
        assert interner.code_of(high) == 1000 and interner.code_of(999) == 999

    def test_code_of_returns_the_default_for_unseen_in_range_ids(self):
        interner = ObjectInterner()
        interner.intern_column([3, 9])
        assert interner.code_of(4, default=-7) == -7
        assert interner.code_of(0, None) is None
        assert interner.code_of(9) == 1
        assert interner.code_of(True, -7) == -7
        interner.intern(1)
        assert interner.code_of(True) == interner.code_of(1.0) == 2


_SMALL = st.integers(min_value=0, max_value=40)
_ANY_ID = st.one_of(
    _SMALL,
    st.integers(min_value=0, max_value=200_000),  # gaps past the slot floor
    st.integers(min_value=-5, max_value=-1),
    st.sampled_from([1 << 40, 1 << 70, -(1 << 70)]),  # past the bound / int64
    st.booleans(),
    st.sampled_from(["a", "b", "acct-9"]),
)
_COLUMN = st.one_of(st.lists(_SMALL, max_size=25), st.lists(_ANY_ID, max_size=12))
_STEP = st.one_of(_COLUMN, _ANY_ID.map(lambda object_id: ("one", object_id)))


def _dict_interner() -> ObjectInterner:
    interner = ObjectInterner()
    interner._to_dict_mode()
    return interner


def _state(interner: ObjectInterner):
    """Everything observable: types too, so ``True`` and ``1`` differ."""
    return [(type(o), o) for o in map(interner.object, range(len(interner)))]


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, max_size=8), probes=st.lists(_ANY_ID, max_size=10), data=st.data())
def test_slot_and_dict_interners_are_indistinguishable(steps, probes, data):
    slot, plain = ObjectInterner(), _dict_interner()
    for step in steps:
        if isinstance(step, tuple):
            assert slot.intern(step[1]) == plain.intern(step[1])
        else:
            assert slot.intern_column(step) == plain.intern_column(step)
        assert _state(slot) == _state(plain)
    for probe in probes + [41, 199_999, 7.0]:
        assert slot.code_of(probe, "unseen") == plain.code_of(probe, "unseen")
    for source in (slot, plain):
        restored = ObjectInterner.from_snapshot(source.to_snapshot())
        assert _state(restored) == _state(plain)
        for probe in probes:
            assert restored.code_of(probe, "unseen") == plain.code_of(probe, "unseen")
    start = data.draw(st.integers(min_value=0, max_value=len(slot)))
    for source in (slot, plain):
        prefix = [source.object(code) for code in range(start)]
        replay = ObjectInterner.from_snapshot(("objects", prefix))
        replay.extend_tail(source.tail(start), start)
        assert _state(replay) == _state(plain)
        for probe in probes:
            assert replay.code_of(probe, "unseen") == plain.code_of(probe, "unseen")


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
