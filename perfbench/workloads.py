"""The benchmark workloads, driven through the public API at defaults.

Each workload builds its inputs from the seed once per run, derives the
expected outputs from :class:`perfbench.oracle.Oracle`, and then runs
passes: an *untraced* pass yields end-to-end samples, a *traced* pass
records a span around every call the benchmark makes into one of the
program's layers and yields per-layer values.  Every pass feeds fresh event
lists and encodes every batch afresh, so no pass sees a batch whose peel
plan another pass already built.

Defaults throughout: ``HistoryCheckerEngine()`` (``kernel="auto"``, serial
executor, observability off) and ``open_stream()`` /
``open_durable_stream(directory)`` without arguments.
"""

import os
import random
import shutil
import statistics
from time import perf_counter

from repro.engine import EncodedBatch, HistoryCheckerEngine
from repro.spec import compile_mcl
from repro.workloads import banking, generators

from perfbench.harness import (
    SETUPS_PER_PASS,
    Ledger,
    baseline_rss_mib,
    layer_metrics,
    percentile,
    rss_mib,
)
from perfbench.oracle import Oracle
from perfbench.spans import Tracer

#: The banking constraints of ``examples/constraint_language.py``, as MCL text.
BANKING_MCL = """\
# An account always plays at least one checking role until it is closed.
let checking = [INTEREST_CHECKING] | [REGULAR_CHECKING]
             | [INTEREST_CHECKING+REGULAR_CHECKING]

constraint checking_roles = init (empty* checking+ empty*)

# Interest accounts are never downgraded -- the transactions violate this.
constraint no_downgrade = init (empty* [REGULAR_CHECKING]* [INTEREST_CHECKING]* empty*)

# Temporal sugar: the same "no downgrade" idea, stated directly.
constraint no_downgrade_temporal =
    (family all) and (never [REGULAR_CHECKING] after [INTEREST_CHECKING])
"""


def _chunks(events, size):
    return [events[i : i + size] for i in range(0, len(events), size)]


def _lookups(engine):
    """Spec-cache and kernel-cache lookups the engine has served so far."""
    stats = engine.stats()
    spec, kernel = stats["spec_cache"], stats["kernel_cache"]
    return spec["hits"] + spec["misses"], kernel["hits"] + kernel["misses"]


def _cache_per_call(engine, before, tracer, root):
    """Cache lookups per stream or engine call made inside the ``root`` span
    (encoding calls, which resolve no spec, are not counted)."""
    after = _lookups(engine)
    calls = sum(
        1
        for name, parent in zip(tracer.names, tracer.parents)
        if parent == root and not name.startswith(("harness.", "batch."))
    )
    return {
        "cache.spec_lookups_per_call": (after[0] - before[0]) / calls,
        "cache.kernel_lookups_per_call": (after[1] - before[1]) / calls,
    }


class Workload:
    """Shared set-up and bookkeeping of the workloads."""

    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.ledger = Ledger()
        self.kernel = None
        #: ``calibrate(rounds)`` times calibration rounds and returns their
        #: median (:meth:`perfbench.harness.Calibration.measure`).
        self.calibrate = None
        self._dirs = 0

    def new_tracer(self, index):
        return Tracer(f"{self.name}-{self.seed}-{index}")

    def fresh_dir(self):
        self._dirs += 1
        return os.path.join(self.workdir, f"d{self._dirs}")

    def open_engine(self, tracer=None):
        """A fresh engine with the workload's specs registered and compiled."""
        engine = HistoryCheckerEngine()
        self.register(engine, tracer)
        for name in engine.spec_names():
            if tracer is None:
                engine.compiled(name)
            else:
                tracer.open("compiler.compiled")
                engine.compiled(name)
                tracer.close()
        return engine

    def register(self, engine, tracer):
        for name, spec in self.suite.items():
            engine.add_spec(name, spec)

    def open_session(self, tracer=None):
        engine = self.open_engine(tracer)
        return engine, engine.open_stream()

    def discard(self, session):
        """Release a set-up session that is not used further."""

    def timed_setups(self):
        """Set up ``SETUPS_PER_PASS`` times; keep the last session."""
        durations, session = [], None
        for _ in range(SETUPS_PER_PASS):
            if session is not None:
                self.discard(session)
            start = perf_counter()
            session = self.open_session()
            durations.append(perf_counter() - start)
        self.kernel = session[0].stats()["kernel"]
        return session, durations

    def restore_times(self, stream, verdicts, restores=6):
        """``{"recover_s": [...], "recover_s_round": [...]}``: seconds
        ``restore_stream`` takes to rebuild ``stream`` from its snapshot in a
        fresh engine, ``restores`` times, each between two calibration
        rounds; checks the restored verdicts."""
        blob = stream.snapshot()
        times, rounds = [], []
        for attempt in range(restores):
            engine = self.open_engine()
            before = self.calibrate(1)
            start = perf_counter()
            restored = engine.restore_stream(blob)
            times.append(perf_counter() - start)
            rounds.append((before + self.calibrate(1)) / 2)
            if attempt == 0:
                same = restored.all_verdicts() == verdicts
            else:
                same = restored.events_seen == stream.events_seen
            self.ledger.check(same, "restored session differs from the live one")
        return {"recover_s": times, "recover_s_round": rounds}

    def traced_restore(self, tracer, stream, verdicts, extra):
        """Snapshot and restore once, outside the timed region."""
        tracer.open("snapshot.dump")
        blob = stream.snapshot()
        tracer.close()
        extra["snapshot.bytes"] = len(blob)
        engine = self.open_engine()
        tracer.open("snapshot.restore")
        restored = engine.restore_stream(blob)
        tracer.close()
        self.ledger.check(restored.all_verdicts() == verdicts, "restored verdicts differ")


class Bulk(Workload):
    """~10⁶ conforming banking events, 20 000-event raw batches, closed loop."""

    name = "bulk"
    BATCH = 20_000

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir)
        histories, self.events, self.suite = generators.conforming_banking_stream(
            seed, objects=max(1, round(100_000 * scale)), mean_length=10
        )
        oracle = Oracle({name: spec.automaton for name, spec in self.suite.items()})
        finals = [oracle.accepting[oracle.run(history)] for history in histories]
        self.expected = {
            name: dict(enumerate(flags[j] for flags in finals))
            for j, name in enumerate(oracle.names)
        }

    def untraced_pass(self):
        chunks = _chunks(self.events, self.BATCH)
        rss_before = baseline_rss_mib()
        (engine, stream), setups = self.timed_setups()
        latencies, miscounted = [], 0
        start = perf_counter()
        for chunk in chunks:
            begin = perf_counter()
            count = stream.feed_events(chunk)
            latencies.append(perf_counter() - begin)
            miscounted += count != len(chunk)
        state = rss_mib() - rss_before
        verdicts = stream.all_verdicts()
        elapsed = perf_counter() - start
        self.ledger.tally(len(chunks), miscounted, "feed_events returned a wrong count")
        self.ledger.check(verdicts == self.expected, "all_verdicts disagrees with the oracle")
        return {
            "setup_s": setups,
            "events_per_s": [len(self.events) / elapsed],
            "latency_s": latencies,
            "state_mb": [state],
            "wall_s": [elapsed],
            **self.restore_times(stream, verdicts),
        }

    def traced_pass(self, tracer):
        chunks = _chunks(self.events, self.BATCH)
        engine, stream = self.open_session(tracer)
        interner = stream.object_interner
        before = _lookups(engine)
        root = tracer.open("pass")
        for chunk in chunks:
            tracer.open("batch.encode")
            batch = engine.encode_events(chunk, interner)
            tracer.close()
            tracer.open("engine.feed")
            stream.feed_events(batch)
            tracer.close()
        tracer.open("engine.verdicts")
        verdicts = stream.all_verdicts()
        tracer.close()
        tracer.close()
        extra = _cache_per_call(engine, before, tracer, root)
        self.ledger.check(verdicts == self.expected, "traced verdicts disagree with the oracle")
        extra.update(
            encoded_events=len(self.events),
            fed_events=len(self.events),
            **{"batch.objects": len(interner)},
        )
        self.traced_restore(tracer, stream, verdicts, extra)
        return layer_metrics(tracer, root, extra), tracer.duration(root)


class Guarded(Workload):
    """Skewed keys through a durable, enforcing stream, then crash and recover."""

    name = "guarded"
    BATCH = 5_000
    #: Batches fed after a manual checkpoint and before the crash, so every
    #: seed's recovery replays a journal tail of the same length.
    TAIL_BATCHES = 5
    #: Recoveries per pass, each from its own copy of the crashed directory.
    RECOVERIES = 6

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.suite = generators.banking_monitoring_suite()
        guide = generators.conjunction_guide(list(self.suite.values()))
        histories = list(
            generators.compiled_walk_histories(
                guide, objects=max(1, round(99_000 * scale)), mean_length=5, noise=0.02, rng=rng
            )
        )
        histories += generators.compiled_walk_histories(
            guide, objects=max(1, round(1_000 * scale)), mean_length=500, noise=0.02, rng=rng
        )
        ids = rng.sample(range(1 << 62), len(histories))
        events = [
            (ids[dense], symbol) for dense, symbol in generators.event_stream(histories, rng=rng)
        ]
        split = len(events) - min(self.TAIL_BATCHES * self.BATCH, len(events) // 2)
        self.events, self.tail = events[:split], events[split:]
        # The oracle plays the gate: an event is refused when its successor
        # is doomed for any spec; refused events leave the state unchanged.
        oracle = Oracle({name: spec.automaton for name, spec in self.suite.items()})
        states, admitted = {}, {}

        def gate(chunk):
            count = 0
            for object_id, symbol in chunk:
                state = states.get(object_id, oracle.initial)
                target = oracle.step(state, symbol)
                if oracle.any_doomed[target]:
                    states[object_id] = state
                else:
                    states[object_id] = target
                    admitted[object_id] = None
                    count += 1
            return count

        def verdicts():
            return {
                name: {obj: oracle.accepting[state][j] for obj, state in states.items()}
                for j, name in enumerate(oracle.names)
            }

        self.admitted_per_batch = [gate(chunk) for chunk in _chunks(self.events, self.BATCH)]
        self.expected = verdicts()
        self.admitted_objects = set(admitted)
        names = oracle.names
        sample = random.Random(seed + 1).sample(list(admitted), min(300, len(admitted)))
        self.doomed_probes = [(names[i % len(names)], obj) for i, obj in enumerate(sample)]
        self.tail_admitted = [gate(chunk) for chunk in _chunks(self.tail, self.BATCH)]
        self.expected_final = verdicts()
        self.admitted_final = set(admitted)

    def open_session(self, tracer=None):
        engine = self.open_engine(tracer)
        return engine, engine.open_durable_stream(self.fresh_dir())

    def discard(self, session):
        session[1].close()
        shutil.rmtree(session[1].directory)

    def check_verdicts(self, verdicts, expected, admitted, what):
        """Every reported verdict matches the oracle gate's, and every object
        with an admitted event is reported."""
        ok = all(
            verdicts[name].items() <= wanted.items() and admitted <= verdicts[name].keys()
            for name, wanted in expected.items()
        )
        self.ledger.check(ok, f"{what}: verdicts disagree with the oracle gate")

    def check_undoomed(self, durable, what, tracer=None):
        """Point reads: no object the gate tracked may be doomed."""
        doomed = 0
        for name, obj in self.doomed_probes:
            if tracer is not None:
                tracer.open("engine.doomed")
            doomed += durable.stream.doomed(name, obj)
            if tracer is not None:
                tracer.close()
        self.ledger.tally(len(self.doomed_probes), doomed, f"{what}: tracked object doomed")

    def feed_tail(self, durable):
        """Checkpoint, feed the tail, return the live verdicts before the crash."""
        durable.checkpoint()
        wrong = 0
        for chunk, expected in zip(_chunks(self.tail, self.BATCH), self.tail_admitted):
            wrong += durable.feed_events(chunk, enforce=True) != expected
        self.ledger.tally(len(self.tail_admitted), wrong, "tail feed admitted the wrong events")
        verdicts = durable.all_verdicts()
        self.check_verdicts(verdicts, self.expected_final, self.admitted_final, "after the tail")
        return verdicts

    def recover_times(self, directory, verdicts, tracer=None):
        """Recover the crashed ``directory`` into fresh engines, once per copy,
        each between two calibration rounds (untraced) or in a span."""
        copies = [directory]
        for k in range(1, self.RECOVERIES if tracer is None else 1):
            copies.append(f"{directory}-copy{k}")
            shutil.copytree(directory, copies[-1])
        times, rounds = [], []
        for path in copies:
            engine = self.open_engine()
            if tracer is not None:
                tracer.open("journal.recover")
            else:
                before = self.calibrate(1)
            start = perf_counter()
            recovered = engine.recover_stream(path)
            times.append(perf_counter() - start)
            if tracer is not None:
                tracer.close()
            else:
                rounds.append((before + self.calibrate(1)) / 2)
            if path is directory:
                same = recovered.all_verdicts() == verdicts
            else:
                same = recovered.events_seen == events_seen
            events_seen = recovered.events_seen
            self.ledger.check(same, "recovered session differs from the live one")
            recovered.close()
            shutil.rmtree(path)
        return {"recover_s": times, "recover_s_round": rounds}

    def untraced_pass(self):
        chunks = _chunks(self.events, self.BATCH)
        rss_before = baseline_rss_mib()
        (engine, durable), setups = self.timed_setups()
        latencies, wrong = [], 0
        start = perf_counter()
        for chunk, expected in zip(chunks, self.admitted_per_batch):
            begin = perf_counter()
            report = durable.feed_events(chunk, enforce=True)
            refused = report.rejection_count
            latencies.append(perf_counter() - begin)
            wrong += report != expected or report + refused != len(chunk)
        state = rss_mib() - rss_before
        verdicts = durable.all_verdicts()
        elapsed = perf_counter() - start
        self.ledger.tally(len(chunks), wrong, "enforced feed admitted the wrong events")
        self.check_verdicts(verdicts, self.expected, self.admitted_objects, "durable stream")
        self.check_undoomed(durable, "durable stream")
        final = self.feed_tail(durable)
        # The crash: the stream is dropped without close().
        directory = durable.directory
        del durable
        return {
            "setup_s": setups,
            "events_per_s": [len(self.events) / elapsed],
            "latency_s": latencies,
            "state_mb": [state],
            "wall_s": [elapsed],
            **self.recover_times(directory, final),
        }

    def traced_pass(self, tracer):
        chunks = _chunks(self.events, self.BATCH)
        engine, durable = self.open_session(tracer)
        # The in-memory twin replays the same encoded events through the
        # enforcement gate alone, so the journal's share can be separated.
        twin = engine.open_stream()
        interner = durable.stream.object_interner
        alphabet = engine.alphabet
        checkpoint_calls, plain_calls = [], []
        admitted = refused = wrong = 0
        before = _lookups(engine)
        root = tracer.open("pass")
        for chunk, expected in zip(chunks, self.admitted_per_batch):
            tracer.open("batch.encode")
            batch = engine.encode_events(chunk, interner)
            tracer.close()
            tracer.open("harness.copy")
            copy = EncodedBatch(list(batch.id_list), list(batch.code_list), interner, alphabet)
            tracer.close()
            tracer.open("engine.enforce")
            plain = twin.feed_events(copy, enforce=True)
            tracer.close()
            checkpoints = durable.stats()["checkpoints"]
            span = tracer.open("journal.feed")
            report = durable.feed_events(batch, enforce=True)
            rejections = report.rejection_count
            tracer.close()
            calls = checkpoint_calls if durable.stats()["checkpoints"] > checkpoints else plain_calls
            calls.append(tracer.duration(span))
            admitted += report
            refused += rejections
            wrong += report != expected or plain != expected
        tracer.open("engine.verdicts")
        verdicts = durable.all_verdicts()
        tracer.close()
        tracer.close()
        extra = _cache_per_call(engine, before, tracer, root)
        self.ledger.tally(len(chunks), wrong, "traced enforced feed admitted the wrong events")
        self.check_verdicts(verdicts, self.expected, self.admitted_objects, "traced stream")
        self.check_undoomed(durable, "traced stream", tracer)
        typical = statistics.median(plain_calls) if plain_calls else 0.0
        journal = durable.stats()
        extra.update(
            {
                "encoded_events": len(self.events),
                "batch.objects": len(interner),
                "engine.admit_ratio": admitted / len(self.events),
                "engine.rejections": refused,
                "journal.checkpoint_s": sum(t - typical for t in checkpoint_calls),
                "journal.checkpoints": journal["checkpoints"],
                "journal.records": journal["records"],
                "journal.bytes": journal["bytes"],
            }
        )
        self.traced_restore(tracer, durable.stream, verdicts, extra)
        final = self.feed_tail(durable)
        directory = durable.directory
        del durable
        self.recover_times(directory, final, tracer)
        return layer_metrics(tracer, root, extra), tracer.duration(root) - sum(
            tracer.duration(i)
            for i, name in enumerate(tracer.names)
            if name in ("harness.copy", "engine.enforce")
        )


class Audit(Workload):
    """Offline batch checking of 10⁵ histories against MCL-registered specs."""

    name = "audit"
    NAMES = ("checking_roles", "no_downgrade", "no_downgrade_temporal")
    #: ``check_batch_all`` calls timed per pass (``events_per_s`` samples).
    CHECKS_PER_PASS = 12
    #: Recoveries (fresh engine + full re-check) timed per pass.
    RECOVERIES = 3
    #: ``explain`` calls between two calibration rounds.
    EXPLAIN_CHUNK = 10_000

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir)
        self.schema = banking.schema()
        self.histories, _events = generators.mcl_event_stream(
            BANKING_MCL,
            self.schema,
            seed=seed,
            objects=max(1, round(100_000 * scale)),
            noise=0.05,
            name="checking_roles",
        )
        self.n_events = sum(map(len, self.histories))
        constraints = compile_mcl(BANKING_MCL, self.schema)
        oracle = Oracle({name: constraints[name].automaton for name in self.NAMES})
        finals = [oracle.run(history) for history in self.histories]
        self.expected = {
            name: [oracle.accepting[state][j] for state in finals]
            for j, name in enumerate(self.NAMES)
        }
        self.failing = [
            (name, index, oracle.doomed[state][j])
            for j, name in enumerate(self.NAMES)
            for index, state in enumerate(finals)
            if not oracle.accepting[state][j]
        ]

    def register(self, engine, tracer):
        for name in self.NAMES:
            if tracer is not None:
                tracer.open("spec.add_spec")
            engine.add_spec(name, BANKING_MCL, schema=self.schema)
            if tracer is not None:
                tracer.close()

    def open_session(self, tracer=None):
        return (self.open_engine(tracer),)

    def check_violations(self, violations, what):
        wrong = sum(
            violation is None or violation.spec != name or violation.doomed != doomed
            for violation, (name, _index, doomed) in zip(violations, self.failing)
        )
        self.ledger.tally(len(self.failing), wrong, f"{what}: explain() report is wrong")

    def untraced_pass(self):
        rss_before = baseline_rss_mib()
        (engine,), setups = self.timed_setups()
        rates, checks, check_rounds = [], [], []
        before = self.calibrate(1)
        for _ in range(self.CHECKS_PER_PASS):
            histories = list(self.histories)
            start = perf_counter()
            verdicts = engine.check_batch_all(histories)
            checks.append(perf_counter() - start)
            after = self.calibrate(1)
            check_rounds.append((before + after) / 2)
            before = after
            rates.append(self.n_events / checks[-1])
            self.ledger.check(verdicts == self.expected, "check_batch_all disagrees")
        # Explain in chunks with a calibration round between chunks, so each
        # latency is scaled by the host speed of its own few hundred ms.
        latencies, latency_rounds, violations = [], [], []
        explaining = 0.0
        for first in range(0, len(self.failing), self.EXPLAIN_CHUNK):
            chunk = self.failing[first : first + self.EXPLAIN_CHUNK]
            start = perf_counter()
            for name, index, _doomed in chunk:
                begin = perf_counter()
                violations.append(engine.explain(name, self.histories[index], object_id=index))
                latencies.append(perf_counter() - begin)
            explaining += perf_counter() - start
            after = self.calibrate(1)
            latency_rounds.extend([(before + after) / 2] * len(chunk))
            before = after
        state = rss_mib() - rss_before
        self.check_violations(violations, "explain")
        # The audit keeps no session: it recovers by re-checking from scratch.
        recovers, recover_rounds = [], []
        for _ in range(self.RECOVERIES):
            start = perf_counter()
            recovered = self.open_engine().check_batch_all(list(self.histories))
            recovers.append(perf_counter() - start)
            after = self.calibrate(1)
            recover_rounds.append((before + after) / 2)
            before = after
            self.ledger.check(recovered == self.expected, "re-check disagrees")
        return {
            "setup_s": setups,
            "events_per_s": rates,
            "events_per_s_round": check_rounds,
            "latency_s": latencies,
            "latency_s_round": latency_rounds,
            "recover_s": recovers,
            "recover_s_round": recover_rounds,
            "state_mb": [state],
            "wall_s": [checks[0] + explaining],
        }

    def traced_pass(self, tracer):
        engine = self.open_engine(tracer)
        before = _lookups(engine)
        root = tracer.open("pass")
        tracer.open("batch.encode_histories")
        encoded = engine.encode_histories(list(self.histories))
        tracer.close()
        tracer.open("executor.check")
        verdicts = engine.check_batch_all(encoded)
        tracer.close()
        violations = []
        for name, index, _doomed in self.failing:
            tracer.open("diagnostics.explain")
            violations.append(engine.explain(name, self.histories[index], object_id=index))
            tracer.close()
        tracer.close()
        extra = _cache_per_call(engine, before, tracer, root)
        self.ledger.check(verdicts == self.expected, "traced check_batch_all disagrees")
        self.check_violations(violations, "traced explain")
        extra["checked_events"] = self.n_events
        return layer_metrics(tracer, root, extra), tracer.duration(root)


WORKLOADS = {cls.name: cls for cls in (Bulk, Guarded, Audit)}
