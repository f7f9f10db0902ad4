"""The vectorized fused kernel: numpy transition gathers over encoded columns.

:class:`VectorKernel` mirrors each :class:`repro.engine.batch._ProductGroup`
as a flat ndarray transition table of shape ``(states, symbols)`` in the
narrowest unsigned dtype that fits (the uint8/uint16/uint32 ladder), and
keeps the per-object state columns as ndarrays of dense state indices
instead of Python row references.  Advancing a batch then replaces the
per-event interpreter loop of :meth:`repro.engine.batch.FusedKernel.
advance_all` with a handful of whole-column gathers.

The interesting part is *ordering*: events of one object must be applied in
sequence, but a flat gather advances every event at once.  The kernel cuts
the batch into chunks of :data:`PEEL_CHUNK` events and repeatedly *peels*
the first pending occurrence of every object off the chunk with a scatter
trick::

    rev = idx[::-1]
    pos[cids[rev]] = rev          # last write wins = first occurrence
    first = pos[cids[idx]] == idx

Each peel round advances all its events with one fancy gather/scatter
(``column[o] = table[column[o], c]``) and drops them from the chunk; the
round count equals the chunk's maximum per-object event multiplicity
(single digits on realistic interleavings).  The peel *plan* depends only
on the batch's immutable columns, so it is computed once, cached on the
batch, and replayed for every group of every stream the batch is fed to.
A pathologically skewed chunk (one object owning more than
:data:`PEEL_DEPTH_LIMIT` events) applies the remaining tail through a
cached nested-list scalar loop instead of degenerating into thousands of
near-empty rounds.

Contiguous whole-history checking (``check_histories``) vectorizes
differently: histories are sorted by length (descending, stable), and round
``r`` advances the still-active prefix with one gather -- the active count
per round comes from a single ``bincount``/``cumsum`` over the length
column, so the loop runs ``max_length`` rounds of pure array ops.

Everything interoperates with the fused kernel: state columns convert
through dense indices (``index_columns`` / ``_columns_from_indices``),
and snapshots use the same packed wire format (so a vector snapshot
restores on a no-numpy host and vice versa).

The module imports without numpy (:data:`HAVE_NUMPY` is the gate the engine
reads for ``kernel="auto"``); only constructing a :class:`VectorKernel`
actually requires it.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.batch import (
    _PAYLOAD_ZLIB_LEVEL,
    COLUMN_WIRE_LIMIT,
    ColumnarHistorySet,
    EncodedBatch,
    FusedKernel,
    _is_prefix,
    _pack_array,
    _ProductGroup,
    _unpack_array,
)
from repro.engine.compiler import CompiledSpec

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    np = None
    HAVE_NUMPY = False

#: Events per peel chunk.  Large enough that per-round numpy overhead
#: amortizes, small enough that the peel working set stays cache-resident
#: and a chunk's round count tracks the *local* object multiplicity.
PEEL_CHUNK = 8192

#: Peel rounds per chunk before the remaining (skew-dominated) tail falls
#: back to the cached scalar loop: each extra round past this point would
#: advance only the handful of objects flooding the chunk.
PEEL_DEPTH_LIMIT = 32


def _dtype_for(n_states: int):
    """The narrowest unsigned dtype holding state indices ``0..n_states-1``."""
    if n_states <= 1 << 8:
        return np.uint8
    if n_states <= 1 << 16:
        return np.uint16
    return np.uint32


# --------------------------------------------------------------------------- #
# Column caches on the history-set type
# --------------------------------------------------------------------------- #
def _history_code_array(history_set: ColumnarHistorySet):
    """The flat history code column as an ndarray (zero-copy view, cached)."""
    if history_set._np_codes is None:
        history_set._np_codes = np.frombuffer(history_set.codes, dtype=np.int64)
    return history_set._np_codes


def _offset_array(history_set: ColumnarHistorySet):
    """The offsets column as an int64 ndarray view (offsets never mutate)."""
    return np.frombuffer(history_set.offsets, dtype=np.int64)


def pack_index_array(values) -> Tuple[str, int, bytes]:
    """:func:`repro.engine.batch._pack_column` for an ndarray source.

    Emits the identical ``(typecode, zlib flag, bytes)`` wire form --
    snapshots written by either kernel kind restore under the other -- but
    narrows and serializes straight from the array buffer.
    """
    typecode, _flag, raw = _pack_array(values)
    packed = zlib.compress(raw, _PAYLOAD_ZLIB_LEVEL)
    if len(packed) < len(raw):
        return typecode, 1, packed
    return typecode, 0, raw


# --------------------------------------------------------------------------- #
# Group tables
# --------------------------------------------------------------------------- #
def _single_spec_table(group: _ProductGroup, width: int):
    """The dense table of a one-spec group, built by pure array ops.

    Uses :meth:`CompiledSpec.dense_arrays` instead of walking the product
    rows: the spec table is augmented with the absorbing dead row and an
    unknown-symbol column, gathered per (occupied product state, shared
    code), and mapped back to product indices.  Returns ``None`` when any
    successor is unmapped (cannot happen for a closed group; defensive).
    """
    spec: CompiledSpec = group.specs[0]
    table, _accepting, _doomed, remap = spec.dense_arrays()
    n_spec = spec.n_states
    full = np.empty((n_spec + 1, spec.n_symbols + 1), dtype=np.int64)
    full[:n_spec, : spec.n_symbols] = table
    full[n_spec, :] = n_spec  # the synthetic dead state absorbs everything
    full[:, spec.n_symbols] = n_spec  # unknown shared symbols are fatal
    codes = np.full(width, spec.n_symbols, dtype=np.int64)
    known = min(width, len(remap))
    codes[:known] = np.where(remap[:known] < 0, spec.n_symbols, remap[:known])
    inverse = np.full(n_spec + 1, -1, dtype=np.int64)
    for signature, index in group.index.items():
        inverse[signature[0]] = index
    decode = np.fromiter(
        (signature[0] for signature in group.decode), dtype=np.int64, count=len(group.decode)
    )
    product = inverse[full[decode[:, None], codes[None, :]]]
    if product.min(initial=0) < 0:  # pragma: no cover - closure is complete
        return None
    return product


class _GroupTable:
    """The numpy mirror of one product group: flat table plus flag columns.

    Rebuilt lazily whenever the group has grown (``ensure_state`` during
    state translation or snapshot restore materializes fresh states);
    existing state indices never change, so a rebuild only *extends* the
    meaning of a column -- and may widen the dtype, which
    :meth:`VectorKernel.grow_columns` propagates to the columns.
    """

    __slots__ = (
        "n_states",
        "table",
        "by_code",
        "accepting",
        "alive",
        "doomed",
        "sink_index",
        "scalar_rows",
    )

    def __init__(self) -> None:
        self.n_states = -1
        self.table = None
        #: The table flattened code-major (``by_code[c * n_states + s]`` is
        #: ``table[s, c]``): a peel round's successors are then one 1-D
        #: ``take`` at the plan's scaled codes (:func:`_scaled_codes`) plus
        #: the states -- cheaper than a 2-D fancy index.
        self.by_code = None
        self.accepting: List = []
        #: Per product state, 1 iff no spec component is doomed -- the
        #: vectorized admissibility vector of the enforcement gate.
        self.alive = None
        #: Per spec, the per-state doomed flags (drives ``fatal_histories``).
        self.doomed: List = []
        self.sink_index = -1
        #: ``table.tolist()`` built on first use by the skew fallback.
        self.scalar_rows: Optional[List[List[int]]] = None

    def sync(self, group: _ProductGroup) -> "_GroupTable":
        n = len(group.decode)
        if n == self.n_states:
            return self
        width = group.width
        table = _single_spec_table(group, width) if len(group.specs) == 1 else None
        if table is None:
            flat = [cell[-1] for row in group.rows for cell in row[:width]]
            table = np.array(flat, dtype=np.int64).reshape(n, width)
        self.table = table.astype(_dtype_for(n))
        self.by_code = np.ascontiguousarray(self.table.T).ravel()
        # bytes() copies: the group bytearrays keep growing in place.
        self.accepting = [np.frombuffer(bytes(acc), dtype=np.uint8) for acc in group.accepting]
        self.alive = np.frombuffer(bytes(group.alive), dtype=np.uint8)
        self.doomed = [np.frombuffer(bytes(col), dtype=np.uint8) for col in group.spec_doomed]
        self.sink_index = group.sink[-1] if group.sink is not None else -1
        self.n_states = n
        self.scalar_rows = None
        return self


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
class VectorKernel(FusedKernel):
    """A :class:`FusedKernel` whose columns and tables are flat ndarrays.

    Construction, spec grouping, product closure and the dense state
    numbering are inherited unchanged -- the two kernels agree on every
    state index by construction, which is what lets streams, snapshots and
    the differential fuzz suite move columns between them freely.
    """

    __slots__ = ("_tables",)

    kind = "vector"

    def __init__(
        self,
        specs: Sequence[Tuple[str, CompiledSpec]],
        width: int,
        cap: Optional[int] = None,
    ) -> None:
        if not HAVE_NUMPY:  # pragma: no cover - exercised on the no-numpy CI leg
            raise RuntimeError(
                "VectorKernel needs numpy; install the repro[fast] extra or use the "
                "fused kernel (HistoryCheckerEngine(kernel='auto'))"
            )
        if cap is None:
            from repro.engine.batch import PRODUCT_STATE_CAP

            cap = PRODUCT_STATE_CAP
        super().__init__(specs, width, cap)
        self._tables = [_GroupTable() for _group in self.groups]

    def _table(self, group_index: int) -> _GroupTable:
        return self._tables[group_index].sync(self.groups[group_index])

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def new_columns(self, n_objects: int = 0) -> List:
        return [
            np.full(n_objects, group.root[-1], dtype=self._table(gi).table.dtype)
            for gi, group in enumerate(self.groups)
        ]

    def grow_columns(self, columns: List, n_objects: int) -> None:
        for gi, group in enumerate(self.groups):
            table = self._table(gi).table
            column = columns[gi]
            if column.dtype != table.dtype:
                column = columns[gi] = column.astype(table.dtype)
            missing = n_objects - len(column)
            if missing > 0:
                columns[gi] = np.concatenate(
                    [column, np.full(missing, group.root[-1], dtype=column.dtype)]
                )

    def advance_all(self, columns: List, batch: EncodedBatch) -> int:
        count = len(batch)
        if not count:
            return 0
        obs = self.obs
        if obs is not None:
            obs.batches_total.inc()
            obs.events_total.inc(count)
        max_id = batch.max_id
        active: List[int] = []
        for gi in range(len(self.groups)):
            tab = self._table(gi)
            column = columns[gi]
            if column.dtype != tab.table.dtype:
                column = columns[gi] = column.astype(tab.table.dtype)
            if (
                tab.sink_index >= 0
                and max_id < len(column)
                and bool((column == tab.sink_index).all())
            ):
                if obs is not None:
                    obs.sink_skips.inc()
                continue  # whole population doomed for every spec of the group
            active.append(gi)
        if not active:
            return count
        if obs is not None:
            if batch._np_plan is not None and batch._np_plan[0] == PEEL_CHUNK:
                obs.plan_cache_hits.inc()
            else:
                obs.plan_cache_misses.inc()
        plan = _batch_plan(batch)
        for gi in active:
            by_code = self._tables[gi].by_code
            column = columns[gi]
            scaled = _scaled_codes(batch, self._tables[gi].n_states)
            for (vectorized, objects, symbol_codes, _positions), offsets in zip(plan, scaled):
                if vectorized:
                    column[objects] = by_code.take(offsets + column.take(objects))
                else:
                    self._advance_scalar(gi, column, objects, symbol_codes)
        if obs is not None:
            # The aggregates were computed once when the plan was built.
            gathers, scalar = batch._np_plan[2]
            obs.gather_rounds.inc(gathers * len(active))
            if scalar:
                obs.scalar_fallback_events.inc(scalar * len(active))
        return count

    def _advance_scalar(self, group_index: int, column, objects, symbol_codes) -> None:
        """The skew fallback: advance a (small) event tail object-by-object."""
        tab = self._tables[group_index]
        if tab.scalar_rows is None:
            tab.scalar_rows = tab.table.tolist()
        rows = tab.scalar_rows
        for o, c in zip(objects.tolist(), symbol_codes.tolist()):
            column[o] = rows[column[o]][c]

    def verdicts_of(self, name: str, column_set: List, seen: Iterable[int]) -> List[bool]:
        group_index, j = self.locate[name]
        column = column_set[group_index]
        if _is_prefix(seen):
            states = column[: len(seen)]
        else:
            states = column[np.fromiter(seen, dtype=np.intp, count=len(seen))]
        return (self._table(group_index).accepting[j][states] != 0).tolist()

    def state_of(self, columns: List, group_index: int, dense: int) -> int:
        column = columns[group_index]
        if 0 <= dense < len(column):
            return int(column[dense])
        return self.groups[group_index].root[-1]

    # ------------------------------------------------------------------ #
    # Preventive enforcement
    # ------------------------------------------------------------------ #
    def _successor_index(self, group_index: int, state: int, code: int) -> int:
        return int(self._table(group_index).table[state, code])

    def component_states(self, columns: List, name: str) -> List[int]:
        group_index, j = self.locate[name]
        group = self.groups[group_index]
        decode = np.fromiter(
            (signature[j] for signature in group.decode),
            dtype=np.int64,
            count=len(group.decode),
        )
        return decode[columns[group_index]].tolist()

    def advance_all_enforced(
        self, columns: List, batch: EncodedBatch
    ) -> Tuple[List, List[Tuple]]:
        """The vectorized transactional screen-and-advance.

        Same contract as :meth:`FusedKernel.advance_all_enforced` (copies,
        skip-and-continue semantics, ``(position, dense, code, states)``
        rejection records in position order -- built lazily here, so
        counting them is free), fused into the peel plan: each round gathers
        the successors once, masks them through the group ``alive`` vectors,
        scatters them all and restores the refused few -- the all-admitted
        common case costs one extra 1-D flag gather per group over the
        plain feed, and a round with rejections costs O(#rejections) on
        top, never a second full scatter.
        """
        n_groups = len(self.groups)
        tabs = []
        copies: List = []
        for gi in range(n_groups):
            tab = self._table(gi)
            column = columns[gi]
            if column.dtype != tab.table.dtype:
                column = column.astype(tab.table.dtype)
            else:
                column = column.copy()
            tabs.append(tab)
            copies.append(column)
        rejections: List[Tuple] = []
        if not len(batch):
            return copies, rejections
        plan = _batch_plan(batch)
        scaled = [_scaled_codes(batch, tab.n_states) for tab in tabs]
        alive_flags = [tab.alive.view(np.bool_) for tab in tabs]
        # Per round with refusals: (positions, objects, codes, pre-states
        # per group) arrays, turned into records once, on first use.
        refused: List[Tuple] = []
        group_range = range(n_groups)
        for k, (vectorized, objects, symbol_codes, positions) in enumerate(plan):
            if vectorized:
                successors = []
                ok = None
                for gi in group_range:
                    successor = tabs[gi].by_code.take(scaled[gi][k] + copies[gi].take(objects))
                    successors.append(successor)
                    good = alive_flags[gi].take(successor)
                    ok = good if ok is None else ok & good
                if ok is None or bool(ok.all()):
                    for gi in group_range:
                        copies[gi][objects] = successors[gi]
                    continue
                # Scatter-all then restore the (few) refused objects: one
                # contiguous fancy scatter per group plus O(#rejections)
                # fixup beats two boolean-masked scatters per round.
                bad = np.flatnonzero(~ok)
                bad_objects = objects[bad]
                # Objects are distinct within one peel round, so the copies
                # still hold the pre-event states before the scatter.
                pre_states = [copies[gi][bad_objects] for gi in group_range]
                for gi in group_range:
                    copies[gi][objects] = successors[gi]
                    copies[gi][bad_objects] = pre_states[gi]
                refused.append((positions[bad], bad_objects, symbol_codes[bad], pre_states))
            else:
                # Skew fallback tail: events may repeat objects, so screen
                # one event at a time across all groups.
                rows = []
                alive = []
                for gi in group_range:
                    tab = tabs[gi]
                    if tab.scalar_rows is None:
                        tab.scalar_rows = tab.table.tolist()
                    rows.append(tab.scalar_rows)
                    alive.append(self.groups[gi].alive)
                for p, o, c in zip(
                    positions.tolist(), objects.tolist(), symbol_codes.tolist()
                ):
                    current = [int(copies[gi][o]) for gi in group_range]
                    successor = [rows[gi][current[gi]][c] for gi in group_range]
                    if all(alive[gi][successor[gi]] for gi in group_range):
                        for gi in group_range:
                            copies[gi][o] = successor[gi]
                    else:
                        rejections.append((p, o, c, tuple(current)))
        if not refused:
            return copies, rejections
        count = len(rejections) + sum(len(entry[0]) for entry in refused)

        def build() -> List[Tuple]:
            positions, objects, codes = (
                np.concatenate([entry[i] for entry in refused]) for i in range(3)
            )
            order = np.argsort(positions, kind="stable")
            states = [
                np.concatenate([entry[3][gi] for entry in refused])[order].tolist()
                for gi in group_range
            ]
            records = list(
                zip(
                    positions[order].tolist(),
                    objects[order].tolist(),
                    codes[order].tolist(),
                    zip(*states),
                )
            )
            if rejections:  # skew-fallback refusals interleave by position
                records = sorted(records + rejections)
            return records

        return copies, _Rejections(count, build)

    def fatal_histories(self, code_list, lengths) -> Dict[str, List[Optional[int]]]:
        codes = np.asarray(code_list, dtype=np.int64)
        lens = np.asarray(lengths, dtype=np.int64)
        n = len(lens)
        if n == 0:
            return {name: [] for name in self.names}
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        order = np.argsort(-lens, kind="stable")
        starts = offsets[:-1][order]
        max_length = int(lens[order[0]]) if n else 0
        counts = np.bincount(lens, minlength=max_length + 1)
        active = n - np.cumsum(counts)  # active[r] = #histories longer than r
        results: Dict[str, List[Optional[int]]] = {}
        for gi, group in enumerate(self.groups):
            tab = self._table(gi)
            table = tab.table
            root = group.root[-1]
            n_specs = len(group.specs)
            states = np.full(n, root, dtype=table.dtype)
            # -2 = still salvageable; -1 = empty language; r = fatal index.
            fatal = np.full((n, n_specs), -2, dtype=np.int64)
            for j in range(n_specs):
                if tab.doomed[j][root]:
                    fatal[:, j] = -1
            for r in range(max_length):
                a = int(active[r])
                if a == 0:  # pragma: no cover - max_length bounds the loop
                    break
                states[:a] = table[states[:a], codes[starts[:a] + r]]
                for j in range(n_specs):
                    newly = (fatal[:a, j] == -2) & (tab.doomed[j][states[:a]] != 0)
                    if newly.any():
                        fatal[: a, j][newly] = r
            unsorted = np.empty_like(fatal)
            unsorted[order] = fatal
            for j, name in enumerate(group.names):
                results[name] = [
                    None if value == -2 else value for value in unsorted[:, j].tolist()
                ]
        return results

    def index_columns(self, columns: List) -> List[List[int]]:
        return [column.tolist() for column in columns]

    def _columns_from_indices(self, index_columns: List[List[int]]) -> List:
        # Sync first: translation/restore may have just materialized states
        # the cached tables have not seen yet.
        return [
            np.asarray(indices, dtype=self._table(gi).table.dtype)
            for gi, indices in enumerate(index_columns)
        ]

    # ------------------------------------------------------------------ #
    # Snapshot payloads
    # ------------------------------------------------------------------ #
    def snapshot_groups(self, columns: List) -> List[Dict]:
        groups: List[Dict] = []
        for group, column in zip(self.groups, columns):
            # np.unique without the sort: state indices are small, so the
            # occupied set and each object's position in it come from one
            # bincount.
            occupied = np.flatnonzero(np.bincount(column))
            position = np.zeros(occupied[-1] + 1 if occupied.size else 0, dtype=np.int64)
            position[occupied] = np.arange(occupied.size)
            inverse = position[column]
            groups.append(
                {
                    "names": group.names,
                    "states": [group.decode[index] for index in occupied.tolist()],
                    "column": pack_index_array(inverse),
                }
            )
        return groups

    def _unpack_indices(self, lookup: List[int], packed: Tuple):
        return np.asarray(lookup, dtype=np.int64)[_unpack_array(packed, limit=COLUMN_WIRE_LIMIT)]

    # ------------------------------------------------------------------ #
    # Batch checking
    # ------------------------------------------------------------------ #
    def check_histories(self, code_list, lengths) -> Dict[str, List[bool]]:
        codes = np.asarray(code_list, dtype=np.int64)
        lens = np.asarray(lengths, dtype=np.int64)
        n = len(lens)
        obs = self.obs
        if obs is not None:
            obs.histories_total.inc(n)
        if n == 0:
            return {name: [] for name in self.names}
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        order = np.argsort(-lens, kind="stable")
        starts = offsets[:-1][order]
        max_length = int(lens[order[0]])
        if obs is not None:
            obs.gather_rounds.inc(max_length * len(self.groups))
        counts = np.bincount(lens, minlength=max_length + 1)
        active = n - np.cumsum(counts)  # active[r] = #histories longer than r
        verdicts: Dict[str, List[bool]] = {}
        final = np.empty(n, dtype=np.int64)
        for gi, group in enumerate(self.groups):
            tab = self._table(gi)
            table = tab.table
            states = np.full(n, group.root[-1], dtype=table.dtype)
            for r in range(max_length):
                a = int(active[r])
                if a == 0:  # pragma: no cover - max_length bounds the loop
                    break
                states[:a] = table[states[:a], codes[starts[:a] + r]]
            final[order] = states
            for j, name in enumerate(group.names):
                accepting = tab.accepting[j]
                verdicts[name] = list(map(bool, accepting[final].tolist()))
        return verdicts

    def check_history_set(self, history_set: ColumnarHistorySet) -> Dict[str, List[bool]]:
        return self.check_histories(
            _history_code_array(history_set), np.diff(_offset_array(history_set))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "+".join(str(len(group)) for group in self.groups)
        return f"VectorKernel({len(self.names)} specs, states {sizes})"


class _Rejections:
    """A screened batch's rejection records, built on first access.

    ``len`` never builds them, so a gate whose report only counts refusals
    skips one Python tuple per refused event.
    """

    __slots__ = ("_count", "_build", "_records")

    def __init__(self, count: int, build) -> None:
        self._count = count
        self._build = build
        self._records: Optional[List[Tuple]] = None

    def _materialized(self) -> List[Tuple]:
        if self._records is None:
            self._records, self._build = self._build(), None
        return self._records

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self):
        return iter(self._materialized())


def _batch_plan(batch: EncodedBatch) -> List[Tuple]:
    """The batch's peel plan: ``(vectorized, objects, codes, positions)`` entries.

    Each vectorized entry holds the first pending occurrence of every object
    still carrying events within one :data:`PEEL_CHUNK` chunk -- applying
    entries in order preserves each object's event order while every entry
    itself is one flat gather.  A non-vectorized entry carries the tail of a
    pathologically skewed chunk (one object owning more than
    :data:`PEEL_DEPTH_LIMIT` events) for the scalar fallback; its events
    sort after every peeled entry for their objects, so order is preserved
    there too.  ``positions`` holds each entry's absolute batch positions
    (``intp``), which the enforcement gate reports rejections by; the plain
    feed never touches them.

    The plan depends only on the batch's immutable id/code columns, so it is
    cached on the batch -- together with its observability aggregates
    ``(vectorized rounds, scalar-fallback events)``, so instrumented feeds
    never re-walk the plan to count -- and replayed by every group of every
    stream the batch is fed to.
    """
    cached = batch._np_plan
    if cached is not None and cached[0] == PEEL_CHUNK:
        return cached[1]
    ids = batch.id_array
    codes = batch.code_array
    pos = np.empty(batch.max_id + 1, dtype=np.intp)
    plan: List[Tuple] = []
    rounds = 0
    scalar_events = 0
    for start in range(0, len(ids), PEEL_CHUNK):
        cur_ids = ids[start : start + PEEL_CHUNK]
        cur_codes = codes[start : start + PEEL_CHUNK]
        idx = np.arange(len(cur_ids), dtype=np.intp)
        depth = 0
        while idx.size:
            if depth >= PEEL_DEPTH_LIMIT:
                plan.append((False, cur_ids, cur_codes, start + idx))
                scalar_events += len(cur_ids)
                break
            pos[cur_ids[::-1]] = idx[::-1]  # last write wins = first occurrence
            first = pos[cur_ids] == idx
            objects = cur_ids[first]
            plan.append((True, objects, cur_codes[first], start + idx[first]))
            rounds += 1
            if objects.size == idx.size:
                break
            keep = ~first
            idx = idx[keep]
            cur_ids = cur_ids[keep]
            cur_codes = cur_codes[keep]
            depth += 1
    batch._np_plan = (PEEL_CHUNK, plan, (rounds, scalar_events), {})
    return plan


def _scaled_codes(batch: EncodedBatch, n_states: int) -> List:
    """Per entry of the batch's (built) peel plan, its codes times
    ``n_states``: the offsets into a code-major table of that height.

    Cached on the plan per height, so a re-fed batch pays only the gathers.
    """
    cache = batch._np_plan[3]
    scaled = cache.get(n_states)
    if scaled is None:
        scaled = cache[n_states] = [codes * n_states for _v, _o, codes, _p in batch._np_plan[1]]
    return scaled


__all__ = [
    "HAVE_NUMPY",
    "PEEL_CHUNK",
    "PEEL_DEPTH_LIMIT",
    "VectorKernel",
    "pack_index_array",
]
