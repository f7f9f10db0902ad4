"""Table compilation of migration specifications.

A specification -- a :class:`repro.core.inventory.MigrationInventory` or any
:class:`repro.formal.nfa.NFA` over role sets -- is compiled **once** into a
:class:`CompiledSpec`: a minimized DFA whose transition function is a flat
integer array indexed by ``state * n_symbols + code`` over the interned
:class:`repro.formal.alphabet.RoleSetAlphabet`.  Advancing a cursor by one
event is then two dictionary-free array reads instead of hashing a frozenset
into a dict of ``(state, symbol)`` pairs, which is what makes checking
millions of events per spec practical.

Compilation is **deterministic**: interning follows the canonical alphabet
order, subset construction and Hopcroft minimization are order-stable, and
states are renumbered densely by a BFS from the start state in symbol-code
order.  Recompiling the same source automaton therefore reproduces the
identical table, so cursor states (small ints) stay valid across an LRU
eviction and recompilation of their spec (tested in
``tests/engine/test_engine.py``).
"""

from __future__ import annotations

import hashlib
from array import array
from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.formal.alphabet import RoleSetAlphabet, canonical_symbol_key, intern_nfa
from repro.formal.nfa import NFA

Symbol = Hashable


class CompiledSpec:
    """A table-compiled runner for one specification automaton.

    States are dense integers ``0 .. n_states``; state ``n_states`` is a
    synthetic dead state used for symbols outside the spec's alphabet (a
    history containing an unknown role set can never be accepted).  The
    natural dead state of the minimized DFA, when one exists, is flagged in
    ``doomed`` as well, so cursors can stop advancing as soon as acceptance
    has become impossible.
    """

    __slots__ = (
        "codes",
        "symbols",
        "initial",
        "n_states",
        "n_symbols",
        "table",
        "accepting",
        "doomed",
        "dead",
        "remap",
        "_fingerprint",
        "_mask",
    )

    def __init__(
        self,
        codes: Dict[Symbol, int],
        symbols: Tuple[Symbol, ...],
        initial: int,
        table: array,
        accepting: bytearray,
        doomed: bytearray,
    ) -> None:
        self.codes = codes
        self.symbols = symbols
        self.initial = initial
        self.n_symbols = len(symbols)
        self.n_states = len(accepting) - 1
        self.table = table
        self.accepting = accepting
        self.doomed = doomed
        #: The synthetic dead state (always the last row of the table).
        self.dead = self.n_states
        #: ``shared code -> spec code`` over the engine's shared alphabet
        #: (``-1`` for shared symbols outside this spec's alphabet); built by
        #: :meth:`ensure_remap` and extended in place as the shared alphabet
        #: grows.  ``array('i')`` so the columnar kernel indexes it without
        #: hashing any symbol twice.
        self.remap: array = array("i")
        self._fingerprint: Optional[str] = None
        self._mask: Optional[bytearray] = None

    # ------------------------------------------------------------------ #
    # Event encoding
    # ------------------------------------------------------------------ #
    def encode(self, symbol: Symbol) -> int:
        """The integer code of ``symbol``, or ``-1`` when outside the alphabet."""
        return self.codes.get(symbol, -1)

    def symbol(self, code: int) -> Symbol:
        """The symbol carrying ``code`` (inverse of :meth:`encode`)."""
        return self.symbols[code]

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def advance(self, state: int, symbol: Symbol) -> int:
        """One event step: the successor of ``state`` on ``symbol``.

        The synthetic dead state has no table row; it absorbs every event.
        """
        if state == self.dead:
            return state
        code = self.codes.get(symbol, -1)
        if code < 0:
            return self.dead
        return self.table[state * self.n_symbols + code]

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """One-shot membership: run the whole word through the table."""
        state = self.initial
        table = self.table
        codes = self.codes
        doomed = self.doomed
        width = self.n_symbols
        for symbol in word:
            code = codes.get(symbol, -1)
            if code < 0:
                return False
            state = table[state * width + code]
            if doomed[state]:
                return False
        return bool(self.accepting[state])

    def is_accepting(self, state: int) -> bool:
        """Whether a cursor resting in ``state`` has an accepted history."""
        return bool(self.accepting[state])

    def is_doomed(self, state: int) -> bool:
        """Whether no continuation of a history in ``state`` can be accepted."""
        return bool(self.doomed[state])

    # ------------------------------------------------------------------ #
    # Admissibility (preventive enforcement)
    # ------------------------------------------------------------------ #
    def admissibility_mask(self) -> bytearray:
        """The per-``(state, code)`` admissibility mask derived from ``doomed``.

        ``mask[state * n_symbols + code]`` is 1 iff taking ``code`` from
        ``state`` lands in a non-doomed successor -- i.e. the event can be
        *admitted* without making acceptance impossible.  The synthetic dead
        state contributes an all-zero row (every event from it is already
        fatal), so the mask covers states ``0 .. n_states`` like the flag
        columns.  Built lazily, once, straight off the transition table: an
        admissibility query is then one flat array read, no replay.
        """
        if self._mask is None:
            doomed = self.doomed
            mask = bytearray(0 if doomed[target] else 1 for target in self.table)
            mask.extend(bytes(self.n_symbols))  # dead-state row: nothing admits
            self._mask = mask
        return self._mask

    def admissible(self, state: int, symbol: Symbol) -> bool:
        """Whether admitting ``symbol`` from ``state`` keeps acceptance possible.

        O(1): one dict lookup to encode the symbol plus one mask read.
        Symbols outside the spec's alphabet are never admissible (their
        successor is the synthetic dead state).
        """
        code = self.codes.get(symbol, -1)
        if code < 0 or state == self.dead:
            return False
        return bool(self.admissibility_mask()[state * self.n_symbols + code])

    def fingerprint(self) -> str:
        """A stable identity of the table *and* its symbol alphabet.

        Compilation is deterministic, so recompiling the same source
        automaton -- in another process, against another shared alphabet --
        reproduces the identical fingerprint.  Stream snapshots
        (:mod:`repro.engine.snapshot`) store it per spec; on restore a
        matching fingerprint proves the snapshot's integer states still mean
        the same thing, while a mismatch (the spec was re-registered with a
        different automaton) resets that spec instead of misreading stale
        states.  The remap array is deliberately excluded: it depends on the
        engine's shared alphabet, not on the spec's language.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(f"{self.n_states}:{self.n_symbols}:{self.initial}".encode())
            digest.update(self.table.tobytes())
            digest.update(bytes(self.accepting))
            digest.update(bytes(self.doomed))
            for symbol in self.symbols:
                digest.update(repr(canonical_symbol_key(symbol)).encode())
                digest.update(b"\x00")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # Shared-alphabet remapping and dense export
    # ------------------------------------------------------------------ #
    def ensure_remap(self, shared: "RoleSetAlphabet") -> array:
        """The ``shared code -> spec code`` array, extended to ``shared``'s size.

        The shared alphabet is append-only (:attr:`RoleSetAlphabet.version`),
        so entries already built stay valid and a stale remap only ever needs
        the new tail appended -- remaps survive spec re-registration and
        shared-alphabet growth without rebuilding.
        """
        remap = self.remap
        encode = self.codes.get
        for code in range(len(remap), len(shared)):
            remap.append(encode(shared.symbol(code), -1))
        return remap

    def dense_arrays(self) -> Tuple:
        """The table and flag columns as flat numpy arrays (requires numpy).

        Returns ``(table, accepting, doomed, remap)`` where ``table`` has
        shape ``(n_states, n_symbols)`` and the other three are 1-D.  All
        four are *copies*: the vector kernel may hold them indefinitely,
        while :attr:`remap` keeps growing in place as the shared alphabet
        extends (a live buffer view would make that ``append`` fail).
        """
        import numpy as np

        table = np.frombuffer(self.table.tobytes(), dtype=np.intc)
        return (
            table.reshape(self.n_states, self.n_symbols),
            np.frombuffer(bytes(self.accepting), dtype=np.uint8),
            np.frombuffer(bytes(self.doomed), dtype=np.uint8),
            np.frombuffer(self.remap.tobytes(), dtype=np.intc),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSpec(states={self.n_states}, symbols={self.n_symbols})"


def compile_spec(automaton: NFA, shared: "RoleSetAlphabet" = None) -> CompiledSpec:
    """Compile an NFA over role sets into a :class:`CompiledSpec`.

    Pipeline: intern the alphabet, determinize, Hopcroft-minimize, then
    flatten the transition function into one integer array with densely
    BFS-numbered states.

    When ``shared`` (an engine-level :class:`RoleSetAlphabet`) is given, the
    spec's symbols are interned into it and the spec's :attr:`remap` array is
    built against it, so encoded batches can drive the table without ever
    hashing a role set again.  The transition table itself is unaffected:
    compilation stays deterministic regardless of the shared alphabet's
    state.
    """
    interner = RoleSetAlphabet()
    dfa = intern_nfa(automaton, interner).determinize().minimize()
    width = len(interner)
    code_range = tuple(range(width))

    # Dense renumbering: BFS from the start state in symbol-code order.
    numbering: Dict = {dfa.initial_state: 0}
    order: List = [dfa.initial_state]
    queue = deque(order)
    while queue:
        state = queue.popleft()
        for code in code_range:
            target = dfa.delta(state, code)
            if target not in numbering:
                numbering[target] = len(order)
                order.append(target)
                queue.append(target)

    n_states = len(order)
    table = array("i", [0]) * (n_states * width)
    for state in order:
        base = numbering[state] * width
        for code in code_range:
            table[base + code] = numbering[dfa.delta(state, code)]

    accepting = bytearray(n_states + 1)
    for state in dfa.accepting_states:
        if state in numbering:
            accepting[numbering[state]] = 1

    # Doomed states: no accepting state is reachable (backward reachability
    # from the accepting set over the transition table).
    predecessors: List[List[int]] = [[] for _ in range(n_states)]
    for source in range(n_states):
        base = source * width
        for code in code_range:
            predecessors[table[base + code]].append(source)
    alive = bytearray(n_states + 1)
    stack = [index for index in range(n_states) if accepting[index]]
    for index in stack:
        alive[index] = 1
    while stack:
        index = stack.pop()
        for source in predecessors[index]:
            if not alive[source]:
                alive[source] = 1
                stack.append(source)
    doomed = bytearray(1 if not alive[index] else 0 for index in range(n_states + 1))

    codes = {symbol: interner.code(symbol) for symbol in interner}
    spec = CompiledSpec(codes, tuple(interner), 0, table, accepting, doomed)
    if shared is not None:
        for symbol in spec.symbols:
            shared.intern(symbol)
        spec.ensure_remap(shared)
    return spec


__all__ = ["CompiledSpec", "compile_spec"]
