"""Random workload generators for the scaling experiments (E18/E19)
and event-stream generators for the streaming history-checker engine.

The paper has no experimental evaluation, so the reproduction adds two
scaling studies: how the migration-graph construction and the decision
procedures behave as schemas, transaction schemas and inventories grow.
The stream generators (:func:`random_histories`, :func:`event_stream`,
:func:`banking_event_stream`, :func:`university_event_stream`,
:func:`immigration_event_stream`) produce interleaved per-object role-set
event streams at 10⁴-10⁶ objects for the engine benchmarks; the near-miss
generators (:func:`near_miss_histories`, :func:`near_miss_banking_stream`)
emit adversarial traffic that violates its guiding spec at exactly one
chosen event, for the violation-diagnostics tests and examples.

**Determinism contract.**  Every randomized entry point takes an explicit
``seed`` -- or, keyword-only, an already seeded ``rng``
(:class:`random.Random`) to share one generator across several calls --
and never touches the global :mod:`random` state.  Same seed, same Python
version: identical output, so benchmark numbers and fuzz cases are
reproducible run to run (pinned by ``tests/workloads/
test_generator_determinism.py``).  Passing neither seed nor rng is an
error, not silent nondeterminism.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


from repro.core.rolesets import RoleSet, enumerate_role_sets
from repro.formal import regex as rx
from repro.language.transactions import Transaction, TransactionSchema
from repro.language.updates import Create, Delete, Generalize, Modify, Specialize
from repro.model.conditions import Condition
from repro.model.schema import DatabaseSchema
from repro.model.values import Variable

#: One event of an object-history stream: ``(object id, role set)``.
Event = Tuple[int, RoleSet]


def _resolve_rng(seed: Optional[int], rng: Optional[random.Random]) -> random.Random:
    """The generator to draw from: ``rng`` when given, else ``Random(seed)``."""
    if rng is not None:
        return rng
    if seed is None:
        raise ValueError(
            "pass an explicit seed= or rng=; the workload generators refuse implicit "
            "(non-reproducible) randomness"
        )
    return random.Random(seed)


def random_schema(
    seed: Optional[int] = None,
    classes: int = 5,
    attributes_per_class: int = 1,
    root_attributes: int = 2,
    *,
    rng: Optional[random.Random] = None,
) -> DatabaseSchema:
    """A random weakly-connected schema with a single isa-root.

    Class ``C0`` is the root; every other class picks one or two parents
    among the previously generated classes, producing a rooted DAG with some
    multiple inheritance.
    """
    rng = _resolve_rng(seed, rng)
    names = [f"C{i}" for i in range(classes)]
    isa = set()
    for index in range(1, classes):
        parents = {names[rng.randrange(0, index)]}
        if index >= 2 and rng.random() < 0.3:
            parents.add(names[rng.randrange(0, index)])
        for parent in parents:
            isa.add((names[index], parent))
    attribute_map: Dict[str, set] = {}
    counter = 0
    for index, name in enumerate(names):
        count = root_attributes if index == 0 else attributes_per_class
        attribute_map[name] = {f"A{counter + offset}" for offset in range(count)}
        counter += count
    return DatabaseSchema(names, isa, attribute_map)


def random_transactions(
    schema: DatabaseSchema,
    seed: Optional[int] = None,
    transactions: int = 4,
    updates_per_transaction: int = 3,
    constants: Sequence[object] = ("k1", "k2"),
    *,
    rng: Optional[random.Random] = None,
) -> TransactionSchema:
    """A random SL transaction schema over ``schema``.

    Each transaction starts with a ``create`` on the root (so objects exist
    to migrate) followed by a mix of specialize / generalize / modify /
    delete steps whose selections test a root attribute against either a
    constant or the transaction's parameter.
    """
    rng = _resolve_rng(seed, rng)
    root = sorted(schema.isa_roots())[0]
    root_attributes = sorted(schema.attributes_of(root))
    key = root_attributes[0]
    non_roots = sorted(schema.classes - {root})
    members: List[Transaction] = []
    for t_index in range(transactions):
        x = Variable("x")
        values = Condition()
        for attribute in root_attributes:
            values = values.and_equal(attribute, x)
        updates: List = [Create(root, values)]
        for _ in range(updates_per_transaction):
            pick = rng.random()
            term = x if rng.random() < 0.6 else constants[rng.randrange(len(constants))]
            selection = Condition.of(**{key: term})
            if pick < 0.45 and non_roots:
                child = non_roots[rng.randrange(len(non_roots))]
                parent = sorted(schema.parents(child))[0]
                new_values = Condition()
                for attribute in sorted(
                    schema.all_attributes_of(child) - schema.all_attributes_of(parent)
                ):
                    new_values = new_values.and_equal(attribute, x)
                updates.append(Specialize(parent, child, selection, new_values))
            elif pick < 0.7 and non_roots:
                child = non_roots[rng.randrange(len(non_roots))]
                updates.append(Generalize(child, selection))
            elif pick < 0.9:
                target = rng.choice(root_attributes)
                updates.append(Modify(root, selection, Condition.of(**{target: term})))
            else:
                updates.append(Delete(root, selection))
        members.append(Transaction(f"T{t_index}", updates))
    return TransactionSchema(schema, members)


def random_role_set_regex(
    schema: DatabaseSchema,
    seed: Optional[int] = None,
    size: int = 6,
    *,
    rng: Optional[random.Random] = None,
) -> rx.Regex:
    """A random regular expression over the non-empty role sets of ``schema``.

    ``size`` controls the number of symbol occurrences; the shape mixes
    concatenation, union and star so that the synthesized migration graphs
    have branching and loops.
    """
    rng = _resolve_rng(seed, rng)
    role_sets = [rs for rs in enumerate_role_sets(schema) if rs]

    def leaf() -> rx.Regex:
        return rx.Symbol(role_sets[rng.randrange(len(role_sets))])

    def build(budget: int) -> rx.Regex:
        if budget <= 1:
            return leaf()
        choice = rng.random()
        left_budget = max(1, budget // 2)
        right_budget = max(1, budget - left_budget)
        if choice < 0.45:
            return rx.Concat(build(left_budget), build(right_budget))
        if choice < 0.75:
            return rx.Union(build(left_budget), build(right_budget))
        return rx.Concat(leaf(), rx.Star(build(budget - 1)))

    return build(size).simplify()


def random_words(
    alphabet: Sequence[object],
    seed: Optional[int] = None,
    count: int = 100,
    max_length: int = 8,
    *,
    rng: Optional[random.Random] = None,
) -> List[Tuple]:
    """Random words over an alphabet, used by the decision-procedure benchmarks."""
    rng = _resolve_rng(seed, rng)
    words = []
    for _ in range(count):
        length = rng.randrange(0, max_length + 1)
        words.append(tuple(alphabet[rng.randrange(len(alphabet))] for _ in range(length)))
    return words


# --------------------------------------------------------------------------- #
# Event-stream generators for the streaming engine (E20)
# --------------------------------------------------------------------------- #
def spec_walk_histories(
    automaton,
    seed: Optional[int] = None,
    objects: int = 100,
    mean_length: int = 10,
    noise: float = 0.05,
    *,
    rng: Optional[random.Random] = None,
) -> Iterator[Tuple[RoleSet, ...]]:
    """Object histories that mostly follow ``automaton``, with injected noise.

    Each history is a random walk over the automaton's subset states:
    while the walk is alive it picks uniformly among the symbols with a
    non-empty successor, and with probability ``noise`` (or once dead) it
    picks an arbitrary alphabet symbol instead -- so a tunable fraction of
    the histories violates the specification, as a realistic checking
    workload does.  Deterministic given ``seed``.
    """
    rng = _resolve_rng(seed, rng)
    symbols = automaton.sorted_alphabet()
    if not symbols:
        raise ValueError("the specification automaton has an empty alphabet")
    start = automaton.epsilon_closure(automaton.initial_states)
    alive_options: Dict = {}

    def options(state):
        cached = alive_options.get(state)
        if cached is None:
            cached = [
                (symbol, target)
                for symbol in symbols
                for target in (automaton.step(state, symbol),)
                if target
            ]
            alive_options[state] = cached
        return cached

    for _ in range(objects):
        length = rng.randint(1, 2 * mean_length - 1)
        word: List[RoleSet] = []
        state = start
        for _ in range(length):
            choices = options(state) if state else ()
            if choices and rng.random() >= noise:
                symbol, state = choices[rng.randrange(len(choices))]
            else:
                symbol = symbols[rng.randrange(len(symbols))]
                state = automaton.step(state, symbol) if state else state
            word.append(symbol)
        yield tuple(word)


def random_histories(
    role_sets: Sequence[RoleSet],
    seed: Optional[int] = None,
    objects: int = 100,
    mean_length: int = 10,
    *,
    rng: Optional[random.Random] = None,
) -> Iterator[Tuple[RoleSet, ...]]:
    """Uniformly random object histories over ``role_sets`` (pure noise)."""
    rng = _resolve_rng(seed, rng)
    for _ in range(objects):
        length = rng.randint(1, 2 * mean_length - 1)
        yield tuple(role_sets[rng.randrange(len(role_sets))] for _ in range(length))


def event_stream(
    histories: Sequence[Sequence[RoleSet]],
    seed: Optional[int] = None,
    *,
    rng: Optional[random.Random] = None,
) -> List[Event]:
    """Interleave per-object histories into one global event stream.

    The arrival order across objects is a deterministic shuffle of the
    multiset of object ids; *within* one object the event order is its
    history order, which is the contract the streaming cursors rely on.
    """
    arrival = [object_id for object_id, history in enumerate(histories) for _ in history]
    _resolve_rng(seed, rng).shuffle(arrival)
    positions = [0] * len(histories)
    events: List[Event] = []
    for object_id in arrival:
        index = positions[object_id]
        positions[object_id] = index + 1
        events.append((object_id, histories[object_id][index]))
    return events


def banking_event_stream(
    seed: Optional[int] = None,
    objects: int = 100,
    mean_length: int = 10,
    noise: float = 0.05,
    *,
    rng: Optional[random.Random] = None,
) -> Tuple[List[Tuple[RoleSet, ...]], List[Event]]:
    """Account-lifecycle histories guided by the checking-role inventory.

    Returns ``(histories, events)``: the per-object ground truth and the
    interleaved stream, so callers can cross-check streaming verdicts
    against one-shot membership.
    """
    from repro.workloads import banking

    guide = banking.checking_role_inventory().automaton
    histories = list(spec_walk_histories(guide, seed, objects, mean_length, noise, rng=rng))
    return histories, event_stream(histories, None if seed is None else seed + 1, rng=rng)


def university_event_stream(
    seed: Optional[int] = None,
    objects: int = 100,
    mean_length: int = 10,
    noise: float = 0.05,
    *,
    rng: Optional[random.Random] = None,
) -> Tuple[List[Tuple[RoleSet, ...]], List[Event]]:
    """Person-lifecycle histories guided by the Example 3.4 "all" family."""
    from repro.workloads import university

    guide = university.expected_families()["all"].automaton
    histories = list(spec_walk_histories(guide, seed, objects, mean_length, noise, rng=rng))
    return histories, event_stream(histories, None if seed is None else seed + 1, rng=rng)


def mcl_event_stream(
    text: str,
    schema: DatabaseSchema,
    seed: Optional[int] = None,
    objects: int = 100,
    mean_length: int = 10,
    noise: float = 0.05,
    name: Optional[str] = None,
    *,
    rng: Optional[random.Random] = None,
) -> Tuple[List[Tuple[RoleSet, ...]], List[Event]]:
    """Spec-guided histories driven directly by MCL constraint text.

    ``text`` is compiled against ``schema`` (:mod:`repro.spec`); the
    constraint named ``name`` -- or the only one, when the source defines
    exactly one -- guides the random walk exactly like the hand-built
    automata in the workload-specific generators above.  Returns
    ``(histories, events)`` as the other stream generators do.
    """
    from repro.spec import compile_constraint

    guide = compile_constraint(text, schema, name=name).automaton
    histories = list(spec_walk_histories(guide, seed, objects, mean_length, noise, rng=rng))
    return histories, event_stream(histories, None if seed is None else seed + 1, rng=rng)


def immigration_event_stream(
    seed: Optional[int] = None,
    objects: int = 100,
    mean_length: int = 10,
    *,
    rng: Optional[random.Random] = None,
) -> Tuple[List[Tuple[RoleSet, ...]], List[Event]]:
    """Visa-status histories: uniform noise over the immigration role sets."""
    from repro.workloads import immigration

    role_sets = [rs for rs in enumerate_role_sets(immigration.schema()) if rs]
    histories = list(random_histories(role_sets, seed, objects, mean_length, rng=rng))
    return histories, event_stream(histories, None if seed is None else seed + 1, rng=rng)


# --------------------------------------------------------------------------- #
# Columnar generators for the multi-spec engine (E23)
# --------------------------------------------------------------------------- #
def compiled_walk_histories(
    spec,
    seed: Optional[int] = None,
    objects: int = 100,
    mean_length: int = 10,
    noise: float = 0.05,
    *,
    rng: Optional[random.Random] = None,
) -> Iterator[Tuple[RoleSet, ...]]:
    """Object histories guided by a *compiled* specification table.

    Unlike :func:`spec_walk_histories` -- whose notion of "alive" is a
    non-empty subset-successor, which on product automata routinely wanders
    into states no acceptance is reachable from -- this walk uses the
    compiled table's exact ``doomed`` data: while alive it picks uniformly
    among the symbols whose successor can still be accepted, and only with
    probability ``noise`` (or once doomed) an arbitrary symbol.  Guiding by
    a conjunction spec therefore yields *conforming traffic*: histories
    whose every prefix stays viable for every conjoined constraint.
    """
    rng = _resolve_rng(seed, rng)
    width = spec.n_symbols
    table = spec.table
    doomed = spec.doomed
    symbols = spec.symbols
    dead = spec.dead
    viable: Dict[int, List[int]] = {}
    for _ in range(objects):
        length = rng.randint(1, 2 * mean_length - 1)
        word: List[RoleSet] = []
        state = spec.initial
        for _ in range(length):
            options = viable.get(state)
            if options is None:
                options = [
                    code for code in range(width) if not doomed[table[state * width + code]]
                ]
                viable[state] = options
            if options and rng.random() >= noise:
                code = options[rng.randrange(len(options))]
            else:
                code = rng.randrange(width)
            word.append(symbols[code])
            state = table[state * width + code] if state != dead else state
        yield tuple(word)


def conjunction_guide(specs: Sequence):
    """One compiled spec accepting exactly the histories every spec accepts.

    ``specs`` are inventories or automata (anything ``check_batch`` takes);
    the intersection is compiled to a table whose ``doomed`` data is exact,
    which is what :func:`compiled_walk_histories` needs to emit traffic that
    conforms to a whole monitoring suite at once.
    """
    from repro.engine.compiler import compile_spec
    from repro.formal import operations as ops
    from repro.formal.nfa import NFA

    automata = [spec if isinstance(spec, NFA) else spec.automaton for spec in specs]
    alphabet = set()
    for automaton in automata:
        alphabet |= set(automaton.alphabet)
    product = automata[0].with_alphabet(alphabet)
    for automaton in automata[1:]:
        product = ops.intersection(product, automaton.with_alphabet(alphabet))
    return compile_spec(product)


def encoded_event_stream(
    histories: Sequence[Sequence[RoleSet]],
    alphabet,
    seed: Optional[int] = None,
    *,
    rng: Optional[random.Random] = None,
):
    """A pre-encoded interleaved stream: interleave, then encode **once**.

    The columnar twin of :func:`event_stream`: object ids are the history
    indexes and every symbol is encoded against ``alphabet``
    -- pass ``engine.alphabet`` so the batch feeds straight into
    :meth:`repro.engine.engine.StreamChecker.feed_events` with zero
    per-spec hashing.
    """
    from repro.engine.batch import EncodedBatch

    return EncodedBatch.from_events(event_stream(histories, seed, rng=rng), alphabet)


def banking_monitoring_suite() -> Dict[str, object]:
    """Six simultaneous account constraints over the banking role sets.

    A realistic multi-spec monitoring workload for the kernel
    benchmarks: the two paper-derived inventories plus four operational
    policies, all over the same alphabet.
    """
    from repro.core.inventory import MigrationInventory
    from repro.workloads import banking

    def inventory(text: str) -> MigrationInventory:
        return MigrationInventory.from_text(
            text, banking.SYMBOLS, alphabet=banking.ROLE_SETS, prefix_close=True
        )

    return {
        "checking_roles": banking.checking_role_inventory(),
        "no_downgrade": banking.no_downgrade_inventory(),
        "single_role": inventory("0* ([IC]|[RC]) ([IC]|[RC])* 0*"),
        "starts_regular": inventory("0* [RC] ([IC]|[RC])* 0*"),
        "interest_end": inventory("0* ([IC]|[RC])* [IC] 0*"),
        "one_downgrade": inventory("0* [RC]* [IC]* [RC]* [IC]* 0*"),
    }


def conforming_banking_stream(
    seed: Optional[int] = None,
    objects: int = 100,
    mean_length: int = 10,
    noise: float = 0.02,
    *,
    rng: Optional[random.Random] = None,
) -> Tuple[List[Tuple[RoleSet, ...]], List[Event], Dict[str, object]]:
    """Mostly-conforming traffic for the whole banking monitoring suite.

    Histories follow the *conjunction* of every suite constraint (so, up to
    ``noise``, each prefix stays viable for all of them -- production
    checking traffic, where violations are the exception), interleaved into
    one stream.  Returns ``(histories, events, suite)``.
    """
    suite = banking_monitoring_suite()
    guide = conjunction_guide(list(suite.values()))
    histories = list(compiled_walk_histories(guide, seed, objects, mean_length, noise, rng=rng))
    return histories, event_stream(histories, None if seed is None else seed + 1, rng=rng), suite


# --------------------------------------------------------------------------- #
# Near-miss / adversarial generators for the violation diagnostics (PR 5)
# --------------------------------------------------------------------------- #
def near_miss_histories(
    spec,
    seed: Optional[int] = None,
    objects: int = 100,
    violate_at: int = 5,
    tail: int = 2,
    *,
    rng: Optional[random.Random] = None,
    alien: Optional[RoleSet] = None,
) -> Iterator[Tuple[RoleSet, ...]]:
    """Histories that violate ``spec`` at exactly event index ``violate_at``.

    ``spec`` is a compiled table (:class:`repro.engine.compiler.
    CompiledSpec`), whose exact ``doomed`` data is what "violate *exactly
    here*" needs: the first ``violate_at`` events each keep the prefix
    viable (acceptance still reachable), the event at index ``violate_at``
    is chosen among the symbols whose successor is doomed, and ``tail``
    arbitrary further events follow -- monitors must keep absorbing events
    for objects already beyond saving.  This is the adversarial complement
    of :func:`compiled_walk_histories`: instead of mostly-conforming
    traffic, every object is a near miss whose fatal event is known by
    construction (the shape the diagnostics tests pin ``explain()``
    against).

    Raises ``ValueError`` when the walk cannot stay viable for
    ``violate_at`` events or a state has no fatal in-alphabet symbol --
    unless ``alien`` (a symbol outside the spec's alphabet, always fatal)
    is provided as the escape hatch.
    """
    rng = _resolve_rng(seed, rng)
    width = spec.n_symbols
    table = spec.table
    doomed = spec.doomed
    symbols = spec.symbols
    viable: Dict[int, List[int]] = {}
    fatal: Dict[int, List[int]] = {}

    def options(state: int, want_doomed: bool) -> List[int]:
        cache = fatal if want_doomed else viable
        cached = cache.get(state)
        if cached is None:
            cached = [
                code
                for code in range(width)
                if bool(doomed[table[state * width + code]]) == want_doomed
            ]
            cache[state] = cached
        return cached

    for _ in range(objects):
        word: List[RoleSet] = []
        state = spec.initial
        for index in range(violate_at):
            choices = options(state, want_doomed=False)
            if not choices:
                raise ValueError(
                    f"cannot stay viable for {violate_at} events: no non-doomed "
                    f"successor after {index} events"
                )
            code = choices[rng.randrange(len(choices))]
            word.append(symbols[code])
            state = table[state * width + code]
        killers = options(state, want_doomed=True)
        if killers:
            code = killers[rng.randrange(len(killers))]
            word.append(symbols[code])
        elif alien is not None:
            word.append(alien)
        else:
            raise ValueError(
                f"no fatal symbol exists after {violate_at} conforming events; "
                f"pass alien= (a symbol outside the spec's alphabet) to force the violation"
            )
        for _ in range(tail):
            word.append(symbols[rng.randrange(width)])
        yield tuple(word)


def near_miss_banking_stream(
    seed: Optional[int] = None,
    objects: int = 100,
    violate_at: int = 5,
    tail: int = 2,
    *,
    rng: Optional[random.Random] = None,
) -> Tuple[List[Tuple[RoleSet, ...]], List[Event]]:
    """An interleaved banking stream where every account is a near miss.

    Each account conforms to the checking-roles constraint for exactly
    ``violate_at`` events and violates it on the next one; the interleaved
    stream is what the violation-triage example and the diagnostics tests
    feed a monitoring session.  Returns ``(histories, events)``.
    """
    from repro.engine.compiler import compile_spec
    from repro.workloads import banking

    rng = _resolve_rng(seed, rng)
    guide = compile_spec(banking.checking_role_inventory().automaton)
    histories = list(
        near_miss_histories(guide, objects=objects, violate_at=violate_at, tail=tail, rng=rng)
    )
    return histories, event_stream(histories, rng=rng)


__all__ = [
    "random_schema",
    "random_transactions",
    "random_role_set_regex",
    "random_words",
    "spec_walk_histories",
    "random_histories",
    "event_stream",
    "banking_event_stream",
    "university_event_stream",
    "mcl_event_stream",
    "immigration_event_stream",
    "compiled_walk_histories",
    "conjunction_guide",
    "encoded_event_stream",
    "banking_monitoring_suite",
    "conforming_banking_stream",
    "near_miss_histories",
    "near_miss_banking_stream",
]
