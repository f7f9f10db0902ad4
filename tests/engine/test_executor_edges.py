"""Batch-path edge cases: the in-process batch check must degrade gracefully.

Empty batches, single histories, zero registered specs, re-registration
under a live name and input order are boundary conditions the happy-path
benchmarks never hit.
"""

from __future__ import annotations

import pytest

from repro.engine import HistoryCheckerEngine
from repro.workloads import banking, generators


@pytest.fixture(scope="module")
def histories():
    return list(generators.banking_event_stream(71, 20, noise=0.3)[0])


def _engine():
    engine = HistoryCheckerEngine()
    engine.add_spec("checking_roles", banking.checking_role_inventory())
    engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
    return engine


def test_empty_batch():
    engine = _engine()
    assert engine.check_batch("checking_roles", []) == []
    assert engine.check_batch_all([]) == {"checking_roles": [], "no_downgrade": []}
    verdicts, violations = engine.check_batch("checking_roles", [], explain=True)
    assert verdicts == [] and violations == []


def test_single_history(histories):
    engine = _engine()
    oracle = engine.compiled("checking_roles")
    one = histories[:1]
    assert engine.check_batch("checking_roles", one) == [oracle.accepts(one[0])]


def test_zero_registered_specs():
    engine = HistoryCheckerEngine()
    assert engine.check_batch_all([["whatever"]]) == {}
    assert engine.spec_names() == ()
    stream = engine.open_stream()
    assert stream.feed_events([(0, banking.ROLE_INTEREST)]) == 1
    assert stream.events_seen == 1
    with pytest.raises(KeyError):
        engine.check_batch("missing", [])


def test_worker_cache_invalidated_after_reregistration(histories):
    engine = _engine()
    before = engine.check_batch("checking_roles", histories)
    oracle = engine.compiled("no_downgrade")
    # Re-register under the same name with a different language: the kernel
    # key carries (name, generation), so the cached kernel must not be reused.
    engine.add_spec("checking_roles", banking.no_downgrade_inventory())
    after = engine.check_batch("checking_roles", histories)
    assert after == [oracle.accepts(history) for history in histories]
    assert after != before  # the two banking constraints disagree on this stream


def test_pool_results_preserve_input_order(histories):
    engine = _engine()
    reversed_histories = list(reversed(histories))
    forward = engine.check_batch("checking_roles", histories)
    backward = engine.check_batch("checking_roles", reversed_histories)
    assert backward == list(reversed(forward))
