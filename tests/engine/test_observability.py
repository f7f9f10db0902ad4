"""Observability threaded through the engine: counters and spans.

Two contracts dominate:

* **disabled is free-ish** -- an uninstrumented engine resolves ``_obs`` to
  ``None`` once, kernels carry ``obs=None``, and ``trace()`` hands out one
  shared no-op context manager (no allocation per call);
* **enabled is exact** -- every fed event, batch verdict, cache touch and
  snapshot byte shows up in the registry, and every batch check leaves one
  span tree behind.
"""

import random

import pytest

from repro import obs
from repro.engine import HistoryCheckerEngine
from repro.workloads import banking


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test leaves the process switch, registry and tracer untouched."""
    yield
    obs.disable()
    obs.clear_spans()


@pytest.fixture
def checking():
    return banking.checking_role_inventory()


def random_banking_words(seed, count, max_length=8):
    rng = random.Random(seed)
    pick = banking.ROLE_SETS
    return [
        tuple(pick[rng.randrange(len(pick))] for _ in range(rng.randrange(0, max_length)))
        for _ in range(count)
    ]


def instrumented_engine(checking, **kwargs):
    registry = obs.MetricsRegistry("test")
    engine = HistoryCheckerEngine(obs=registry, **kwargs)
    engine.add_spec("checking", checking)
    return engine, registry


class TestDisabledContract:
    def test_engine_is_uninstrumented_by_default(self, checking):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", checking)
        assert engine._obs is None
        assert engine.stats()["observability"] is False
        assert "metrics" not in engine.stats()
        kernel = engine._kernel_for(("checking",))
        assert kernel.obs is None

    def test_disabled_trace_allocates_nothing(self):
        assert obs.trace("a") is obs.trace("b")
        assert obs.current_span() is None

    def test_process_switch_governs_new_engines(self, checking):
        obs.enable(obs.MetricsRegistry("switch"))
        try:
            instrumented = HistoryCheckerEngine()
            assert instrumented._obs is not None
        finally:
            obs.disable()
        assert HistoryCheckerEngine()._obs is None
        # Explicit settings override the switch in both directions.
        assert HistoryCheckerEngine(obs=False)._obs is None
        assert HistoryCheckerEngine(obs=True)._obs is not None
        with pytest.raises(TypeError):
            HistoryCheckerEngine(obs="yes")


class TestEngineCounters:
    def test_stream_feed_counts_events_and_batches(self, checking):
        engine, registry = instrumented_engine(checking)
        stream = engine.open_stream(["checking"])
        words = random_banking_words(seed=5, count=40)
        fed = 0
        for index, word in enumerate(words):
            stream.feed_events([(index, role_set) for role_set in word])
            fed += len(word)
        data = registry.to_dict()
        assert data["repro_engine_events_total"] == fed
        assert data["repro_engine_batches_total"] == len(words)
        assert data["repro_engine_streams_opened_total"] == 1

    def test_batch_verdicts_are_tallied(self, checking):
        engine, registry = instrumented_engine(checking)
        histories = random_banking_words(seed=7, count=100)
        verdicts = engine.check_batch("checking", histories)
        data = registry.to_dict()
        passes = sum(verdicts)
        assert data['repro_engine_verdicts_total{verdict="pass"}'] == passes
        assert data['repro_engine_verdicts_total{verdict="fail"}'] == len(verdicts) - passes
        assert data["repro_engine_check_batches_total"] == 1

    def test_kernel_layer_counters_accumulate(self, checking):
        engine, registry = instrumented_engine(checking)
        stream = engine.open_stream(["checking"])
        stream.feed_events([(0, banking.ROLE_SETS[0]), (1, banking.ROLE_SETS[0])])
        engine.check_batch_all(random_banking_words(seed=9, count=20), ["checking"])
        kind = engine._kernel_kind()
        data = registry.to_dict()
        assert data[f'repro_kernel_events_total{{kind="{kind}"}}'] == 2
        assert data[f'repro_kernel_batches_total{{kind="{kind}"}}'] == 1
        assert data[f'repro_kernel_histories_total{{kind="{kind}"}}'] == 20

    def test_spec_cache_counters_are_mirrored(self, checking):
        engine, registry = instrumented_engine(checking, cache_size=1)
        engine.add_spec("other", banking.no_downgrade_inventory())
        engine.check_batch_all(random_banking_words(seed=11, count=10))
        data = registry.to_dict()
        stats = engine.cache_stats()
        assert data['repro_engine_cache_hits_total{cache="spec"}'] == stats["hits"]
        assert data['repro_engine_cache_misses_total{cache="spec"}'] == stats["misses"]
        assert data['repro_engine_cache_evictions_total{cache="spec"}'] == stats["evictions"]
        assert stats["evictions"] > 0  # cache_size=1 with two specs must churn

    def test_violations_and_snapshot_round_trip_are_counted(self, checking):
        engine, registry = instrumented_engine(checking)
        stream = engine.open_stream(["checking"], record=True)
        # An invalid first step for the checking inventory: a bare account
        # owner that never was a customer.
        stream.feed_events([("acct", frozenset({"checking_account_owner"}))])
        violations = stream.explain_all("checking")
        assert violations
        blob = stream.snapshot()
        restored = engine.restore_stream(blob)
        assert restored.events_seen == 1
        data = registry.to_dict()
        assert data["repro_engine_violations_total"] == len(violations)
        assert data['repro_engine_snapshot_bytes_total{direction="dump"}'] == len(blob)
        assert data['repro_engine_snapshot_bytes_total{direction="restore"}'] == len(blob)
        assert data["repro_engine_snapshot_state_translations_total"] >= 1
        assert data["repro_engine_streams_opened_total"] == 2  # open + restore

    def test_stats_surface(self, checking):
        engine, _registry = instrumented_engine(checking)
        stats = engine.stats()
        assert stats["specs"] == 1
        assert stats["observability"] is True
        assert stats["kernel"] in ("fused", "vector")
        assert "repro_engine_events_total" in stats["metrics"]
        assert stats["metrics"]["repro_engine_specs"] == 1

    def test_private_registries_isolate_engines(self, checking):
        engine_a, registry_a = instrumented_engine(checking)
        engine_b, registry_b = instrumented_engine(checking)
        engine_a.open_stream(["checking"]).feed_events([(0, banking.ROLE_SETS[0])])
        assert registry_a.to_dict()["repro_engine_events_total"] == 1
        assert registry_b.to_dict()["repro_engine_events_total"] == 0
        assert engine_b is not engine_a


class TestSpans:
    def test_batch_check_leaves_one_local_span_tree(self, checking):
        obs.enable(obs.MetricsRegistry("spans"))
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", checking)
        engine.check_batch("checking", random_banking_words(seed=13, count=64))
        roots = [span for span in obs.recent_spans() if span.name == "engine.check_batch_all"]
        assert len(roots) == 1
        children = [child.name for child in roots[0].children]
        assert children == ["encode.histories", "kernel.check"]
        assert roots[0].duration >= sum(child.duration for child in roots[0].children)


class TestCli:
    def test_text_report(self, capsys):
        from repro.obs.__main__ import main

        assert main(["--objects", "60", "--batches", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_events_total counter" in out
        assert "engine.check_batch_all" in out  # span tree section
        assert not obs.enabled()  # the CLI restores the switch

    def test_json_report(self, capsys):
        import json

        from repro.obs.__main__ import main

        assert main(["--objects", "40", "--batches", "2", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["observability"] is True
        assert stats["metrics"]["repro_engine_streams_opened_total"] == 2
