"""The streaming history-checker engine against one-shot automaton semantics.

The contract under test: for every object and every prefix of its history,
the engine's incremental verdict equals a one-shot ``DFA.accepts`` /
``NFA.accepts`` run on the full history -- including when the compiled spec
is evicted from the LRU cache (and deterministically recompiled) in the
middle of the stream.
"""

import random

import pytest

from repro.engine import (
    CursorTable,
    HistoryCheckerEngine,
    HistoryCursor,
    SpecCache,
    compile_spec,
)
from repro.workloads import banking, generators, university


@pytest.fixture(scope="module")
def checking():
    return banking.checking_role_inventory()


@pytest.fixture(scope="module")
def no_downgrade():
    return banking.no_downgrade_inventory()


def random_banking_words(seed, count, max_length=8):
    rng = random.Random(seed)
    pick = banking.ROLE_SETS
    return [
        tuple(pick[rng.randrange(len(pick))] for _ in range(rng.randrange(0, max_length)))
        for _ in range(count)
    ]


class TestCompiledSpec:
    def test_agrees_with_automaton_on_enumerated_and_random_words(self, checking):
        spec = compile_spec(checking.automaton)
        for word in checking.automaton.enumerate_words(5, limit=100):
            assert spec.accepts(word)
        for word in random_banking_words(seed=7, count=500):
            assert spec.accepts(word) == checking.automaton.accepts(word)

    def test_unknown_symbols_reject_permanently(self, checking):
        spec = compile_spec(checking.automaton)
        alien = university.ROLE_G
        assert spec.encode(alien) == -1
        state = spec.advance(spec.initial, alien)
        assert state == spec.dead
        assert spec.is_doomed(state)
        assert not spec.accepts((alien, banking.ROLE_INTEREST))

    def test_recompilation_is_deterministic(self, checking):
        first = compile_spec(checking.automaton)
        second = compile_spec(checking.automaton)
        assert first.table == second.table
        assert first.accepting == second.accepting
        assert first.doomed == second.doomed
        assert first.codes == second.codes

    def test_doomed_states_never_recover(self, checking):
        spec = compile_spec(checking.automaton)
        # [A] alone violates "always plays a checking role".
        state = spec.advance(spec.initial, banking.ROLE_ACCOUNT)
        assert spec.is_doomed(state)
        for symbol in banking.ROLE_SETS:
            assert spec.is_doomed(spec.advance(state, symbol))
        # The synthetic dead state (reached on unknown symbols) absorbs
        # every further event instead of indexing past the table.
        dead = spec.advance(spec.initial, university.ROLE_G)
        assert dead == spec.dead
        for symbol in banking.ROLE_SETS:
            assert spec.advance(dead, symbol) == spec.dead


class TestCursors:
    def test_cursor_prefix_verdicts_equal_one_shot_accepts(self, checking):
        spec = compile_spec(checking.automaton)
        for word in random_banking_words(seed=11, count=100):
            cursor = HistoryCursor(spec)
            assert cursor.accepted == checking.automaton.accepts(())
            for position, symbol in enumerate(word, start=1):
                cursor.advance(symbol)
                assert cursor.accepted == checking.automaton.accepts(word[:position])
            assert cursor.events_seen == len(word)

    def test_cursor_table_tracks_many_objects(self, checking):
        spec = compile_spec(checking.automaton)
        histories = {oid: word for oid, word in enumerate(random_banking_words(seed=13, count=50))}
        table = CursorTable()
        events = generators.event_stream([histories[oid] for oid in sorted(histories)], seed=3)
        table.advance_events(spec, events)
        verdicts = table.verdicts(spec)
        for oid, word in histories.items():
            if word:
                assert verdicts[oid] == checking.automaton.accepts(word)


class TestSpecCache:
    def test_lru_eviction_and_counters(self):
        cache = SpecCache(maxsize=2)
        specs = {name: compile_spec(banking.checking_role_inventory().automaton) for name in "abc"}
        for name, spec in specs.items():
            cache.put(name, spec)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert "a" not in cache
        assert cache.get("b") is specs["b"]
        cache.put("d", specs["a"])
        # "c" was least recently used after the touch of "b".
        assert "c" not in cache
        assert cache.stats()["hits"] == 1

    def test_get_or_compile_compiles_once_until_evicted(self, checking):
        cache = SpecCache(maxsize=1)
        compilations = []

        def factory():
            compilations.append(1)
            return compile_spec(checking.automaton)

        cache.get_or_compile("spec", factory)
        cache.get_or_compile("spec", factory)
        assert len(compilations) == 1
        cache.put("other", compile_spec(checking.automaton))
        cache.get_or_compile("spec", factory)
        assert len(compilations) == 2


class TestEngineBatch:
    def test_batch_verdicts_equal_one_shot_accepts(self, checking):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", checking)
        histories = random_banking_words(seed=17, count=200)
        verdicts = engine.check_batch("checking", histories)
        assert verdicts == [checking.automaton.accepts(word) for word in histories]

    def test_unknown_spec_raises(self):
        engine = HistoryCheckerEngine()
        with pytest.raises(KeyError):
            engine.check_batch("nope", [])

    def test_check_batch_all_rejects_an_executor(self, checking):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", checking)
        histories = random_banking_words(seed=19, count=10)
        assert engine.check_batch_all(histories, None, None) == engine.check_batch_all(histories)
        with pytest.raises(TypeError, match="executor"):
            engine.check_batch_all(histories, None, object())


class TestEngineStreaming:
    def test_stream_verdicts_equal_one_shot_accepts(self, checking, no_downgrade):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", checking)
        engine.add_spec("no_downgrade", no_downgrade)
        histories, events = generators.banking_event_stream(seed=23, objects=150, mean_length=6)
        stream = engine.open_stream()
        stream.feed_events(events)
        assert stream.events_seen == len(events)
        for name, inventory in (("checking", checking), ("no_downgrade", no_downgrade)):
            verdicts = stream.verdicts(name)
            for oid, word in enumerate(histories):
                assert verdicts[oid] == inventory.automaton.accepts(word), (name, oid, word)

    def test_mid_stream_cache_eviction_is_invisible(self, checking, no_downgrade):
        # Cache of size 1 with two live specs: every feed chunk of one spec
        # evicts the other, so each spec is recompiled many times mid-stream.
        engine = HistoryCheckerEngine(cache_size=1)
        engine.add_spec("checking", checking)
        engine.add_spec("no_downgrade", no_downgrade)
        histories, events = generators.banking_event_stream(seed=29, objects=80, mean_length=6)
        stream = engine.open_stream()
        for start in range(0, len(events), 50):
            stream.feed_events(events[start : start + 50])
        assert engine.cache_stats()["evictions"] > 2
        for name, inventory in (("checking", checking), ("no_downgrade", no_downgrade)):
            verdicts = stream.verdicts(name)
            for oid, word in enumerate(histories):
                assert verdicts[oid] == inventory.automaton.accepts(word), (name, oid)

    def test_single_event_feed_and_partial_verdicts(self, checking):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", checking)
        stream = engine.open_stream(["checking"])
        stream.feed("acct", banking.ROLE_INTEREST)
        assert stream.verdict("checking", "acct")
        stream.feed("acct", banking.ROLE_ACCOUNT)
        assert not stream.verdict("checking", "acct")
        stream.feed("acct", banking.ROLE_INTEREST)
        assert not stream.verdict("checking", "acct")  # doomed: verdict is final
        assert stream.objects() == ("acct",)


class TestStreamGenerators:
    def test_event_streams_preserve_per_object_order(self):
        for maker in (
            lambda: generators.banking_event_stream(seed=31, objects=40, mean_length=5),
            lambda: generators.university_event_stream(seed=31, objects=40, mean_length=5),
            lambda: generators.immigration_event_stream(seed=31, objects=40, mean_length=5),
        ):
            histories, events = maker()
            rebuilt = {oid: [] for oid in range(len(histories))}
            for oid, symbol in events:
                rebuilt[oid].append(symbol)
            for oid, word in enumerate(histories):
                assert tuple(rebuilt[oid]) == tuple(word)

    def test_streams_are_deterministic_given_the_seed(self):
        first = generators.banking_event_stream(seed=37, objects=25)
        second = generators.banking_event_stream(seed=37, objects=25)
        assert first == second

    def test_guided_histories_mostly_satisfy_the_guide(self, checking):
        histories, _ = generators.banking_event_stream(seed=41, objects=200, noise=0.0)
        accepted = sum(checking.automaton.accepts(word) for word in histories)
        assert accepted >= 150  # noiseless walks can still die (then wander)
