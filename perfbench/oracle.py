"""The benchmark's correctness oracle: per-spec DFAs walked in plain Python.

Every spec's automaton is determinized with the formal layer's subset
construction (:meth:`repro.formal.nfa.NFA.determinize`) and walked here,
symbol by symbol, through dictionaries.  Nothing of the engine is used --
not its table compiler, not the fused kernel, not the vector kernel -- so a
wrong verdict from either kernel cannot be mirrored by the oracle.

The specs are walked together: a product state is the tuple of the
per-spec DFA states, interned to a small integer the first time it is
reached, so walking ``n`` events costs ``n`` dictionary lookups whatever the
number of specs.
"""

from collections import deque


class _SpecDFA:
    """One spec's DFA as index tables, plus the states acceptance cannot be
    reached from (the *doomed* states)."""

    def __init__(self, automaton):
        dfa = automaton.determinize()
        index = {state: i for i, state in enumerate(dfa.states)}
        self.initial = index[dfa.initial_state]
        #: The sink every symbol outside the spec's alphabet leads to.
        self.dead = len(index)
        self.delta = {
            (index[state], symbol): index[target]
            for (state, symbol), target in dfa.transitions.items()
        }
        self.accepting = [False] * (self.dead + 1)
        for state in dfa.accepting_states:
            self.accepting[index[state]] = True
        predecessors = [[] for _ in range(self.dead + 1)]
        for (source, _symbol), target in self.delta.items():
            predecessors[target].append(source)
        live = [False] * (self.dead + 1)
        queue = deque(i for i, accepting in enumerate(self.accepting) if accepting)
        for i in queue:
            live[i] = True
        while queue:
            for source in predecessors[queue.popleft()]:
                if not live[source]:
                    live[source] = True
                    queue.append(source)
        self.doomed = [not flag for flag in live]

    def step(self, state, symbol):
        return self.delta.get((state, symbol), self.dead)


class Oracle:
    """Acceptance and doom of histories under a named set of specs."""

    def __init__(self, automata):
        """``automata`` maps spec names to NFAs (in session order)."""
        self.names = tuple(automata)
        self._specs = [_SpecDFA(automaton) for automaton in automata.values()]
        self._rows = []
        self._tuples = []
        self._ids = {}
        #: Per product state, one acceptance flag per spec.
        self.accepting = []
        #: Per product state, one doomed flag per spec.
        self.doomed = []
        #: Per product state, whether any spec is doomed (the enforcement gate).
        self.any_doomed = []
        self.initial = self._intern(tuple(spec.initial for spec in self._specs))

    def _intern(self, components):
        state = self._ids.get(components)
        if state is None:
            state = len(self._tuples)
            self._ids[components] = state
            self._tuples.append(components)
            self._rows.append({})
            doomed = tuple(spec.doomed[c] for spec, c in zip(self._specs, components))
            self.accepting.append(
                tuple(spec.accepting[c] for spec, c in zip(self._specs, components))
            )
            self.doomed.append(doomed)
            self.any_doomed.append(any(doomed))
        return state

    def step(self, state, symbol):
        """The product state after one symbol."""
        target = self._rows[state].get(symbol)
        if target is None:
            components = tuple(
                spec.step(c, symbol) for spec, c in zip(self._specs, self._tuples[state])
            )
            target = self._rows[state][symbol] = self._intern(components)
        return target

    def run(self, history, state=None):
        """The product state after a whole history."""
        state = self.initial if state is None else state
        rows = self._rows
        for symbol in history:
            target = rows[state].get(symbol)
            state = self.step(state, symbol) if target is None else target
        return state

    def verdict_lists(self, histories):
        """``{name: [accepted?, ...]}`` in history order."""
        accepting = self.accepting
        finals = [accepting[self.run(history)] for history in histories]
        return {name: [flags[j] for flags in finals] for j, name in enumerate(self.names)}
