"""The columnar event pipeline: encode-once batches and the fused multi-spec kernel.

The first engine re-paid a representation tax on every sweep: each spec
re-hashed every event's frozenset role set through its own ``codes`` dict
and object ids lived in per-spec dicts.  This module makes a *columnar*
encoding the engine's native interchange format instead:

* :class:`ObjectInterner` -- object ids become dense integers in
  first-appearance order.  Non-negative ``int`` ids go through a numpy
  *slot table* indexed by the id (one gather per column, fresh ids found by
  a first-occurrence scatter); any other id -- or a numpy-less host --
  switches the interner to a dict for good (the fallback is sticky);
* :class:`EncodedBatch` -- an interleaved event stream encoded **once**
  against the engine's shared :class:`repro.formal.alphabet.RoleSetAlphabet`
  into ``int64`` ndarray id/code columns (list columns on the dict path),
  with the other layout derived lazily for the consumers that need it;
* :class:`ColumnarHistorySet` -- whole-history batches as one flat code
  column plus offsets, the unit of batch checking;
* :class:`FusedKernel` -- the multi-spec kernel.  Registered specs are
  fused into the reachable *product* automaton (greedily packed into groups
  under a state cap), whose states are Python lists holding direct
  references to their successor rows.  :meth:`FusedKernel.advance_all` is
  therefore a single pass per group over one encoded batch whose inner loop
  is ``column[o] = column[o][c]`` -- no hashing, no index arithmetic, no
  branches.  Product states that are doomed for every spec in a group
  collapse onto one absorbing sink row, and a population that has fully
  reached the sink lets the whole group skip subsequent batches
  (the doomed-population early exit).

Everything here runs on plain ints, lists and int64 ndarrays; symbols
appear only at the encode boundary and when verdicts are mapped back to
caller object ids.
"""

from __future__ import annotations

import zlib
from array import array
from itertools import chain
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.engine.compiler import CompiledSpec
from repro.formal.alphabet import RoleSetAlphabet

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None

Symbol = Hashable
ObjectId = Hashable
Event = Tuple[ObjectId, Symbol]

#: Product states per fused group before the kernel starts a new group.
#: Doomed-state collapse keeps realistic spec sets far below this; the cap
#: only guards adversarial spec combinations from materializing a huge
#: product (they fall back to smaller groups, down to one spec per group).
PRODUCT_STATE_CAP = 20_000

#: zlib level for packed snapshot columns: level 1 keeps compression at
#: memory-copy speed while already collapsing low-entropy columns by ~4-8x.
_PAYLOAD_ZLIB_LEVEL = 1

#: Decompression bound for packed columns arriving from *untrusted* wire
#: blobs (snapshots, journal records): generous for any real session (10⁷
#: objects at 8 bytes), fatal for a zlib bomb inside a corrupted payload.
COLUMN_WIRE_LIMIT = 1 << 27

#: Largest object count a ``("dense", n)`` id-space payload may claim:
#: the same wire bound, at 8 bytes per object.
DENSE_WIRE_LIMIT = COLUMN_WIRE_LIMIT // 8

#: Slot-table sizing: integer ids take the slot path while the table spans
#: at most ``_SLOT_FLOOR + _SLOT_FACTOR * objects`` slots (8 bytes each), so
#: its memory stays a small constant factor of the interned object count.
_SLOT_FLOOR = 1 << 16
_SLOT_FACTOR = 4

_INT_ONLY = {int}


class ObjectInterner:
    """Dense integer codes for stream objects, append-only like the alphabet.

    Codes are handed out in first-appearance order and never move.  The
    id -> code map lives in one of two representations:

    * a **slot table** -- an ``int64`` ndarray indexed by the id itself,
      ``-1`` marking ids not seen yet -- while every interned id is a
      non-negative ``int`` and the table stays within
      ``_SLOT_FLOOR + _SLOT_FACTOR * len(self)`` slots.  Encoding a column
      is one gather; fresh ids are found with a first-occurrence scatter
      (no dict, no sort) and the caller's own id objects are appended to
      the object list, so no new Python ints are minted.
    * a **dict** ``{id: code}`` for everything else -- strings, tuples,
      bools, ids past the bound -- and on hosts without numpy.

    The dict fallback is sticky: the first column the slot table cannot
    hold converts the interner once (building the dict from the object
    list) and it never probes the slot table again.  Both representations
    hand out the same codes for the same input, so the choice is invisible
    outside this class.
    """

    __slots__ = ("_objects", "_slots", "_codes")

    def __init__(self) -> None:
        self._objects: List[ObjectId] = []
        #: Exactly one of the two maps is live: the slot table (``None`` in
        #: dict mode) or the dict (``None`` in slot mode).
        self._slots = _np.empty(0, dtype=_np.int64) if _np is not None else None
        self._codes: Optional[Dict[ObjectId, int]] = None if _np is not None else {}

    def __len__(self) -> int:
        return len(self._objects)

    def _slot_bound(self, extra: int = 0) -> int:
        """Slots the table may span once ``extra`` more objects are interned."""
        return _SLOT_FLOOR + _SLOT_FACTOR * (len(self._objects) + extra)

    def _to_dict_mode(self) -> None:
        """Leave slot mode for good: the dict is rebuilt from the object list."""
        if self._codes is None:
            objects = self._objects
            self._codes = dict(zip(objects, range(len(objects))))
            self._slots = None

    def _reserve(self, high: int) -> None:
        """Grow the slot table to hold id ``high`` (doubling, capped at the bound)."""
        slots = self._slots
        if high < len(slots):
            return
        grown = _np.full(max(high + 1, min(2 * len(slots), self._slot_bound())), -1, _np.int64)
        grown[: len(slots)] = slots
        self._slots = grown

    def intern(self, object_id: ObjectId) -> int:
        """The dense code of one object, allocating a fresh one on first sight."""
        return int(self.encode_column((object_id,))[0])

    def intern_column(self, column: Sequence[ObjectId]) -> List[int]:
        """Encode a whole id column into a list of codes."""
        codes = self.encode_column(column)
        return codes if isinstance(codes, list) else codes.tolist()

    def encode_column(self, column: Sequence[ObjectId]):
        """Encode a whole id column: the codes as an ``int64`` ndarray on the
        slot path, as a list on the dict path."""
        if not len(column):
            return []
        if self._slots is not None:
            ids = _int_array(column)
            codes = None if ids is None else self._intern_ids(ids, column)
            if codes is not None:
                return codes
            self._to_dict_mode()
        codes = self._codes
        objects = self._objects
        # dict.fromkeys, not set(): first-appearance order, so the codes
        # handed out below do not depend on the process hash seed.
        for object_id in dict.fromkeys(column):
            if object_id not in codes:
                codes[object_id] = len(objects)
                objects.append(object_id)
        return list(map(codes.__getitem__, column))

    def _intern_ids(self, ids, column: Optional[Sequence[ObjectId]] = None):
        """The slot-table codes of the non-empty int64 id array ``ids``, or
        ``None`` -- with nothing interned -- when the table cannot hold them.

        Fresh objects are taken from ``column``, the caller's own id objects
        (no new Python ints are minted), or from ``ids`` when there is none.
        """
        high = int(ids.max())
        # len(ids) bounds the fresh ids, so ids failing this check would
        # leave the table past its bound however many are new.
        if int(ids.min()) < 0 or high >= self._slot_bound(len(ids)):
            return None
        self._reserve(high)
        slots = self._slots
        codes = slots[ids]
        where = _np.flatnonzero(codes < 0)
        if where.size:
            fresh = ids[where]
            order = _np.arange(fresh.size)
            slots[fresh[::-1]] = order[::-1]  # last write wins = first occurrence
            new = where[slots[fresh] == order]
            start = len(self._objects)
            slots[ids[new]] = _np.arange(start, start + new.size)
            codes[where] = slots[fresh]
            if column is None:
                self._objects.extend(ids[new].tolist())
            elif new.size == ids.size:
                self._objects.extend(column)  # every id fresh and distinct
            else:
                self._objects.extend(map(column.__getitem__, new.tolist()))
            # The exact post-intern bound: a sparse column may have grown
            # the table past it -- its codes stand, the dict takes over.
            if len(slots) > self._slot_bound():
                self._to_dict_mode()
        return codes

    def code_of(self, object_id: ObjectId, default: int = -1) -> int:
        """The existing code of ``object_id``, or ``default`` -- never interns.

        Slot mode keeps dict-lookup semantics: every key is an ``int``
        below the table length, and such an int hashes to itself, so the
        only candidate is the slot at ``hash(object_id)`` -- matched by
        identity or ``==`` exactly as a dict would (``True`` finds ``1``).
        """
        slots = self._slots
        if slots is None:
            return self._codes.get(object_id, default)
        slot = hash(object_id)
        if 0 <= slot < len(slots):
            code = int(slots[slot])
            if code >= 0:
                known = self._objects[code]
                if known is object_id or known == object_id:
                    return code
        return default

    def object(self, code: int) -> ObjectId:
        """The object carrying ``code`` (inverse of :meth:`intern`)."""
        return self._objects[code]

    def decode(self, codes: Iterable[int]) -> List[ObjectId]:
        """The objects carrying ``codes``; a ``range(n)`` is one list slice."""
        if isinstance(codes, range) and codes.step == 1:
            return self._objects[codes.start : codes.stop]
        return list(map(self._objects.__getitem__, codes))

    def _is_identity(self) -> bool:
        """Whether every code ``c`` holds the int ``c`` -- the id space
        ``("dense", n)`` stands for."""
        objects = self._objects
        if self._slots is not None:
            return bool((self._slots[: len(objects)] == _np.arange(len(objects))).all())
        return all(type(o) is int and o == c for c, o in enumerate(objects))

    def to_snapshot(self) -> Tuple:
        """The id space as a picklable pair.

        A slot-mode interner ships its ids as one packed integer column in
        code order (``("ids", packed)``, cut straight from the slot table);
        a dict-mode interner ships its object list.  :meth:`from_snapshot`
        inverts both exactly -- codes never move across a snapshot round
        trip.
        """
        slots = self._slots
        if slots is None:
            return ("objects", list(self._objects))
        held = _np.flatnonzero(slots >= 0)
        ids = _np.empty(len(self._objects), dtype=_np.int64)
        ids[slots[held]] = held
        return ("ids", _pack_array(ids))

    def tail(self, start: int) -> Tuple:
        """The id-space delta since the first ``start`` codes, as a payload.

        The object-list slice ``[start:]`` in code order; :meth:`extend_tail`
        applies it to an interner whose first ``start`` codes match -- the
        journal's replay contract.
        """
        return ("objects", self._objects[start:])

    def extend_tail(self, payload: Tuple, start: int) -> None:
        """Apply a :meth:`tail` payload recorded at id-space size ``start``.

        The interner must hold exactly the first ``start`` codes the payload
        was cut at (interning is deterministic, so a state restored from an
        older checkpoint always does); misaligned payloads raise
        ``ValueError`` rather than silently shifting codes.  Legacy
        ``("dense", n)`` tails -- the identity id space ``0..n-1`` earlier
        builds journaled -- extend an interner whose codes are that
        identity.
        """
        kind, data = payload
        if kind == "dense":
            count = _dense_count(data)
            if not self._is_identity():
                raise ValueError(
                    "a dense id-space tail cannot extend an interner whose codes are not "
                    "the identity on 0..n-1"
                )
            data = range(len(self._objects), max(count, len(self._objects)))
        elif kind != "objects":
            raise ValueError(f"unknown object-interner tail kind {kind!r}")
        elif len(self._objects) != start:
            raise ValueError(
                f"object-id tail recorded at size {start} cannot extend an interner "
                f"holding {len(self._objects)} codes"
            )
        self._append_fresh(data)

    def _append_fresh(self, data) -> None:
        """Intern ids that must all be new, in order: snapshot restore and
        journal-tail replay.

        ``data`` is a sequence of ids or an int64 array of them.  A payload
        that repeats an id raises ``ValueError``; on the dict path the check
        runs before anything is interned.
        """
        start = len(self._objects)
        if not len(data):
            return
        if self._slots is not None:
            if isinstance(data, _np.ndarray):
                ids, column = data, None
            else:
                ids, column = _int_array(data), data
            if ids is not None and self._intern_ids(ids, column) is not None:
                if len(self._objects) != start + len(data):
                    raise ValueError("an object-id payload repeats an id")
                return
            self._to_dict_mode()
        if _np is not None and isinstance(data, _np.ndarray):
            data = data.tolist()
        fresh = dict(zip(data, range(start, start + len(data))))
        if len(fresh) != len(data) or not fresh.keys().isdisjoint(self._codes.keys()):
            raise ValueError("an object-id payload repeats an id")
        if self._codes:
            self._codes.update(fresh)
        else:
            self._codes = fresh
        self._objects.extend(data)

    @classmethod
    def from_snapshot(cls, payload: Tuple) -> "ObjectInterner":
        """Rebuild the id space serialized by :meth:`to_snapshot`.

        ``n`` of a ``("dense", n)`` payload is validated before anything is
        materialized; the form is also what earlier builds wrote for their
        dense interner mode.
        """
        kind, data = payload
        interner = cls()
        if kind == "dense":
            interner._append_fresh(range(_dense_count(data)))
        elif kind == "ids":
            interner._append_fresh(_unpack_ints(data, COLUMN_WIRE_LIMIT))
        elif kind == "objects":
            interner._append_fresh(data)
        else:
            raise ValueError(f"unknown object-interner snapshot kind {kind!r}")
        return interner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "dict" if self._slots is None else "slots"
        return f"ObjectInterner({len(self)} objects, {mode})"


def _int_array(column: Sequence[ObjectId]):
    """``column`` as an int64 ndarray when every id is a plain ``int`` that
    fits (checked in C), else ``None``."""
    if set(map(type, column)) != _INT_ONLY:
        return None
    try:
        return _np.fromiter(column, dtype=_np.int64, count=len(column))
    except OverflowError:
        return None


def _dense_count(count) -> int:
    """The object count of a ``("dense", n)`` payload, bounds-checked."""
    if type(count) is not int or not 0 <= count <= DENSE_WIRE_LIMIT:
        raise ValueError(
            f"a dense id-space payload must count 0..{DENSE_WIRE_LIMIT} objects, not {count!r}"
        )
    return count


#: Packed-column typecodes, narrowest first, with the largest value each
#: holds.  ``"I"`` is taken only where ``array`` makes it 4 bytes wide.
_TYPECODES = {"B": 0xFF, "H": 0xFFFF, "I": 0xFFFFFFFF, "q": (1 << 63) - 1}
if array("I").itemsize != 4:  # pragma: no cover - no mainstream platform
    del _TYPECODES["I"]


def _narrowest_typecode(high: int) -> str:
    return next((code for code, top in _TYPECODES.items() if high <= top), "q")


def _pack_column(values: Sequence[int]) -> Tuple[str, int, bytes]:
    """``(typecode, zlib flag, data)`` with the narrowest dtype that fits,
    compressed when that is smaller."""
    high = max(values, default=0)
    typecode = _narrowest_typecode(high)
    raw = array(typecode, values).tobytes()
    packed = zlib.compress(raw, _PAYLOAD_ZLIB_LEVEL)
    if len(packed) < len(raw):
        return typecode, 1, packed
    return typecode, 0, raw


def _pack_array(values) -> Tuple[str, int, bytes]:
    """:func:`_pack_column` for an int64 ndarray, uncompressed: the
    narrowest typecode and the buffer bytes, readable without numpy."""
    high = int(values.max()) if values.size else 0
    typecode = _narrowest_typecode(high)
    return typecode, 0, values.astype(_np.dtype(typecode), copy=False).tobytes()


def _unpack_column(packed: Tuple[str, int, bytes], limit: Optional[int] = None) -> List[int]:
    """Inverse of :func:`_pack_column`; ``limit`` caps decompressed bytes.

    Untrusted wire parsers (snapshot restore, journal replay) pass a limit
    so a corrupted or hostile length cannot zip-bomb the process into a
    ``MemoryError``: decompression stops at the bound and raises
    ``ValueError`` instead of materializing the claimed size.
    """
    typecode, data = _unpacked_bytes(packed, limit)
    column = array(typecode)
    column.frombytes(data)
    return column.tolist()


def _unpack_array(packed: Tuple[str, int, bytes], limit: Optional[int] = None):
    """:func:`_unpack_column` into an ndarray (needs numpy) -- no list."""
    typecode, data = _unpacked_bytes(packed, limit)
    if typecode not in _TYPECODES:
        raise ValueError(f"unknown packed column typecode {typecode!r}")
    return _np.frombuffer(data, dtype=_np.dtype(typecode))


def _unpack_ints(packed: Tuple[str, int, bytes], limit: int, through: Optional[List[int]] = None):
    """A packed column decoded under ``limit``, optionally mapped through
    the ``through`` lookup list: an int64 ndarray when numpy is present
    (the layout the vector kernel sweeps), else a list."""
    if _np is None:
        column = _unpack_column(packed, limit)
        return column if through is None else list(map(through.__getitem__, column))
    column = _unpack_array(packed, limit)
    if through is None:
        return column.astype(_np.int64)
    return _np.asarray(through, dtype=_np.int64)[column]


def _unpacked_bytes(packed: Tuple[str, int, bytes], limit: Optional[int]) -> Tuple[str, bytes]:
    typecode, compressed, data = packed
    if compressed:
        if limit is None:
            data = zlib.decompress(data)
        else:
            decompressor = zlib.decompressobj()
            data = decompressor.decompress(data, limit + 1)
            if len(data) > limit or decompressor.unconsumed_tail:
                raise ValueError(f"packed column inflates past the {limit}-byte bound")
    elif limit is not None and len(data) > limit:
        raise ValueError(f"packed column carries more than the {limit}-byte bound")
    return typecode, data


def _split_column(values) -> Tuple[Optional[List[int]], object]:
    """``(list, None)`` or ``(None, int64 ndarray)`` for one batch column."""
    if _np is not None and isinstance(values, _np.ndarray):
        return None, values.astype(_np.int64, copy=False)
    return (values if isinstance(values, list) else list(values)), None


def _column_max(values: Optional[List[int]], array_values) -> int:
    if array_values is not None:
        return int(array_values.max()) if array_values.size else -1
    return max(values, default=-1)


def _packed(values: Optional[List[int]], array_values) -> Tuple[str, int, bytes]:
    """One batch column in the uncompressed :func:`_pack_column` form.

    An ndarray column narrows for the price of one ``max`` and a cast; a
    list column stays 8-byte ``"q"`` rather than pay a Python ``max`` scan.
    """
    if array_values is not None:
        return _pack_array(array_values)
    return "q", 0, array("q", values).tobytes()


class EncodedBatch:
    """An interleaved event batch encoded once into dense integer columns.

    Each column is an ``int64`` ndarray, a plain list, or both.  A batch
    encoded through the interner's slot table is born as ndarrays -- the
    vector kernel's native layout, so ``len``, :attr:`max_id` and
    :attr:`max_code` never touch a list -- while dict-path and wire-decoded
    batches are born as lists.  The other form is derived on first use and
    cached: :attr:`id_list` / :attr:`code_list` for the consumers that sweep
    per event in Python (the fused kernel, enforcement records, traces),
    :attr:`id_array` / :attr:`code_array` for the vector kernel.
    A batch is immutable once built and remembers the
    :class:`ObjectInterner` that owns its id space, so streams can adopt a
    pre-encoded batch without re-hashing anything.
    """

    __slots__ = (
        "objects",
        "alphabet",
        "max_code",
        "_len",
        "_max_id",
        "_id_list",
        "_code_list",
        "_np_ids",
        "_np_codes",
        "_np_plan",
    )

    def __init__(
        self,
        ids,
        codes,
        objects: ObjectInterner,
        alphabet: Optional[RoleSetAlphabet] = None,
        max_code: Optional[int] = None,
    ) -> None:
        self._id_list, self._np_ids = _split_column(ids)
        self._code_list, self._np_codes = _split_column(codes)
        self._len = len(self._id_list if self._np_ids is None else self._np_ids)
        self.objects = objects
        #: The alphabet the codes were minted against (``None`` after a wire
        #: round trip); streams refuse batches from a foreign alphabet.
        self.alphabet = alphabet
        #: ``max_code`` may be passed as an upper bound by callers slicing a
        #: sub-batch out of an already-validated batch (the enforcement
        #: gate's admitted subset): validation only compares it against the
        #: alphabet size, so inheriting the parent's bound is safe and skips
        #: an O(n) scan.
        if max_code is None:
            max_code = _column_max(self._code_list, self._np_codes)
        self.max_code = max_code
        self._max_id: Optional[int] = None
        #: The cached peel plan, filled by :mod:`repro.engine.vector` (a
        #: batch is immutable, so it is derived once and shared by every
        #: stream the batch is fed to).
        self._np_plan = None

    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        alphabet: RoleSetAlphabet,
        objects: Optional[ObjectInterner] = None,
    ) -> "EncodedBatch":
        """Encode ``(object id, symbol)`` pairs in two C-speed column passes.

        Unseen symbols are interned into ``alphabet`` (append-only, so codes
        already handed out never move); unseen objects are interned into
        ``objects`` (a fresh interner when not given).  When the ids take
        the interner's slot path, both columns come out as ndarrays.
        """
        events = events if isinstance(events, (list, tuple)) else list(events)
        interner = objects if objects is not None else ObjectInterner()
        if not events:
            return cls([], [], interner, alphabet)
        ids = interner.encode_column(list(map(itemgetter(0), events)))
        codes = alphabet.encode_column(list(map(itemgetter(1), events)))
        if not isinstance(ids, list):
            codes = _np.fromiter(codes, dtype=_np.int64, count=len(codes))
        return cls(ids, codes, interner, alphabet)

    def __len__(self) -> int:
        return self._len

    @property
    def id_list(self) -> List[int]:
        """The dense object-id column as a list."""
        if self._id_list is None:
            self._id_list = self._np_ids.tolist()
        return self._id_list

    @property
    def code_list(self) -> List[int]:
        """The symbol-code column as a list."""
        if self._code_list is None:
            self._code_list = self._np_codes.tolist()
        return self._code_list

    @property
    def id_array(self):
        """The dense object-id column as an ``int64`` ndarray (needs numpy)."""
        if self._np_ids is None:
            self._np_ids = _np.fromiter(self._id_list, dtype=_np.int64, count=self._len)
        return self._np_ids

    @property
    def code_array(self):
        """The symbol-code column as an ``int64`` ndarray (needs numpy)."""
        if self._np_codes is None:
            self._np_codes = _np.fromiter(self._code_list, dtype=_np.int64, count=self._len)
        return self._np_codes

    @property
    def max_id(self) -> int:
        """The largest dense object id in the batch (``-1`` when empty)."""
        if self._max_id is None:
            self._max_id = _column_max(self._id_list, self._np_ids)
        return self._max_id

    @property
    def ids(self) -> array:
        """The object-id column as ``array('q')``."""
        return array("q", self.id_list)

    @property
    def codes(self) -> array:
        """The symbol-code column as ``array('q')``."""
        return array("q", self.code_list)

    def packed_columns(self) -> Tuple[Tuple, Tuple]:
        """Both columns as uncompressed ``(typecode, 0, bytes)`` packed
        columns (:func:`_unpack_column` reads them): the WAL record layout."""
        return _packed(self._id_list, self._np_ids), _packed(self._code_list, self._np_codes)

    def without(self, positions: Sequence[int]) -> "EncodedBatch":
        """The sub-batch with the events at sorted, distinct ``positions`` removed.

        Keeps this batch's column layout and ``max_code`` bound; the list
        form is cut by slice-extends over the runs between removed
        positions, so the cost is O(#positions) list operations.
        """
        if self._np_ids is not None and self._np_codes is not None:
            ids = _np.delete(self._np_ids, positions)
            codes = _np.delete(self._np_codes, positions)
        else:
            id_list, code_list = self.id_list, self.code_list
            ids, codes = [], []
            previous = 0
            for p in positions:
                ids.extend(id_list[previous:p])
                codes.extend(code_list[previous:p])
                previous = p + 1
            ids.extend(id_list[previous:])
            codes.extend(code_list[previous:])
        return EncodedBatch(ids, codes, self.objects, self.alphabet, max_code=self.max_code)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedBatch({self._len} events)"


class ColumnarHistorySet:
    """Whole object histories as one flat code column plus offsets.

    The batch-checking analogue of :class:`EncodedBatch`: history ``i`` is
    ``code_list[offsets[i]:offsets[i + 1]]``.
    """

    __slots__ = ("code_list", "offsets", "alphabet", "max_code", "_codes", "_np_codes")

    def __init__(
        self,
        code_list: List[int],
        offsets: array,
        alphabet: Optional[RoleSetAlphabet] = None,
    ) -> None:
        self.code_list = code_list
        self.offsets = offsets
        #: The alphabet the codes were minted against (``None`` when the
        #: columns were built by hand); the engine refuses sets from a
        #: foreign alphabet.
        self.alphabet = alphabet
        self.max_code = max(code_list, default=-1)
        self._codes: Optional[array] = None
        #: ndarray view of the code column, filled by :mod:`repro.engine.vector`.
        self._np_codes = None

    @classmethod
    def from_histories(
        cls, histories: Sequence[Sequence[Symbol]], alphabet: RoleSetAlphabet
    ) -> "ColumnarHistorySet":
        """Encode every history once against the shared alphabet."""
        code_list = alphabet.encode_column(list(chain.from_iterable(histories)))
        offsets = array("q", bytes(8 * (len(histories) + 1)))
        position = 0
        for index, history in enumerate(histories):
            position += len(history)
            offsets[index + 1] = position
        return cls(code_list, offsets, alphabet)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def codes(self) -> array:
        """The flat code column as ``array('q')``."""
        if self._codes is None:
            self._codes = array("q", self.code_list)
        return self._codes

    def lengths(self) -> List[int]:
        """Per-history event counts, in history order."""
        offsets = self.offsets
        return [offsets[i + 1] - offsets[i] for i in range(len(self))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarHistorySet({len(self)} histories, {len(self.code_list)} events)"


def _is_prefix(seen: Iterable[int]) -> bool:
    """Whether ``seen`` is ``range(n)``: every dense id below ``n``."""
    return isinstance(seen, range) and seen.start == 0 and seen.step == 1


class ProductCapExceeded(Exception):
    """Raised mid-construction when a group would exceed its state cap."""


class _ProductGroup:
    """The eagerly materialized reachable product of one group of specs.

    States are rows: Python lists of length ``width + 1`` whose first
    ``width`` slots hold direct references to the successor *row* for each
    shared symbol code and whose last slot holds the state's dense index.
    Advancing one event is therefore a single subscript chain.  Every state
    that is doomed for *all* specs of the group collapses onto one absorbing
    ``sink`` row.

    ``cap`` bounds construction *incrementally*: exceeding it raises
    :class:`ProductCapExceeded` from inside the closure BFS, so an
    adversarial spec combination aborts after at most ``cap + 1`` states
    instead of materializing a huge product first and checking afterwards.
    The cap applies to the initial build only; later ``ensure_state`` calls
    (state translation across kernel rebuilds) may grow past it, bounded by
    the states streams actually occupy.
    """

    __slots__ = (
        "names",
        "specs",
        "width",
        "cap",
        "rows",
        "decode",
        "index",
        "accepting",
        "spec_doomed",
        "alive",
        "sink",
        "root",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        specs: Sequence[CompiledSpec],
        width: int,
        cap: Optional[int] = None,
    ) -> None:
        self.names = names
        self.specs = list(specs)
        self.width = width
        self.cap = cap
        self.rows: List[list] = []
        self.decode: List[Tuple[int, ...]] = []
        self.index: Dict[Tuple[int, ...], int] = {}
        self.accepting: List[bytearray] = [bytearray() for _ in specs]
        self.spec_doomed: List[bytearray] = [bytearray() for _ in specs]
        #: Per product state: 1 iff *no* spec component is doomed there -- the
        #: group-wise admissibility vector of the preventive-enforcement gate
        #: (an event is admissible iff its successor state is alive).
        self.alive = bytearray()
        self.sink: Optional[list] = None
        self.root = self.rows[self.ensure_state(tuple(spec.initial for spec in specs))]
        self.cap = None  # the cap guards the initial closure only

    def _add_state(self, state: Tuple[int, ...]) -> int:
        accepting_flags = []
        doomed_flags = []
        doomed_for_all = True
        doomed_for_any = False
        for j, spec in enumerate(self.specs):
            accepting_flags.append(spec.accepting[state[j]])
            component_doomed = spec.doomed[state[j]]
            doomed_flags.append(component_doomed)
            doomed_for_all = doomed_for_all and bool(component_doomed)
            doomed_for_any = doomed_for_any or bool(component_doomed)
        if doomed_for_all and self.sink is not None:
            # Collapse onto the absorbing sink: acceptance is False forever
            # for every spec of the group, so one representative is enough.
            index = self.sink[-1]
            self.index[state] = index
            return index
        index = len(self.decode)
        if self.cap is not None and index >= self.cap:
            raise ProductCapExceeded(f"product group would exceed {self.cap} states")
        self.index[state] = index
        self.decode.append(state)
        for j in range(len(self.specs)):
            self.accepting[j].append(accepting_flags[j])
            self.spec_doomed[j].append(doomed_flags[j])
        self.alive.append(0 if doomed_for_any else 1)
        row = [None] * self.width + [index]
        self.rows.append(row)
        if doomed_for_all:
            self.sink = row
            for code in range(self.width):
                row[code] = row
        return index

    def _successor(self, state: Tuple[int, ...], code: int) -> Tuple[int, ...]:
        successor = []
        for j, spec in enumerate(self.specs):
            spec_code = spec.remap[code] if code < len(spec.remap) else -1
            component = state[j]
            if spec_code < 0 or component == spec.dead:
                successor.append(spec.dead)
            else:
                successor.append(spec.table[component * spec.n_symbols + spec_code])
        return tuple(successor)

    def ensure_state(self, state: Tuple[int, ...]) -> int:
        """The dense index of ``state``, materializing its closure on demand."""
        found = self.index.get(state)
        if found is not None:
            return found
        first = self._add_state(state)
        frontier = [first]
        while frontier:
            index = frontier.pop()
            row = self.rows[index]
            if row[0] is not None:
                continue  # already closed (the sink self-loops at creation)
            source = self.decode[index]
            for code in range(self.width):
                successor = self._successor(source, code)
                known = self.index.get(successor)
                if known is None:
                    known = self._add_state(successor)
                    if self.rows[known][0] is None:
                        frontier.append(known)
                row[code] = self.rows[known]
        return first

    def __len__(self) -> int:
        return len(self.decode)


def _build_group(
    names: Tuple[str, ...], specs: Sequence[CompiledSpec], width: int, cap: Optional[int]
) -> Optional[_ProductGroup]:
    """The product group, or ``None`` when it would exceed ``cap`` states."""
    try:
        return _ProductGroup(names, specs, width, cap)
    except ProductCapExceeded:
        return None


class FusedKernel:
    """Every registered spec fused into greedily packed product groups.

    Most spec sets fit one group, so :meth:`advance_all` is literally a
    single pass over the encoded batch; a spec whose addition would blow the
    product cap starts a new group (degenerating, at worst, to one spec per
    group -- still hash-free columnar sweeps).
    """

    __slots__ = ("names", "width", "groups", "locate", "obs")

    #: Which kernel implementation this is; the engine's kernel keys and
    #: the kernel-layer instruments carry it.
    kind = "fused"

    def __init__(
        self,
        specs: Sequence[Tuple[str, CompiledSpec]],
        width: int,
        cap: int = PRODUCT_STATE_CAP,
    ) -> None:
        self.names: Tuple[str, ...] = tuple(name for name, _spec in specs)
        self.width = width
        #: Kernel-layer observability instruments
        #: (:class:`repro.obs.instruments.KernelInstruments`) or ``None``;
        #: assigned by the owning engine, so the disabled hot path pays one
        #: attribute check and nothing else.
        self.obs = None
        self.groups: List[_ProductGroup] = []
        self.locate: Dict[str, Tuple[int, int]] = {}
        # Realistic spec sets fit one group: try that first, so the greedy
        # packing does not rebuild the product once per spec prefix (it
        # would end with this very group).
        whole = None
        if len(specs) > 1:
            whole = _build_group(self.names, [spec for _name, spec in specs], width, cap)
        if whole is not None:
            self.groups.append(whole)
        else:
            self._pack_greedily(specs, width, cap)
        for group_index, group in enumerate(self.groups):
            for j, name in enumerate(group.names):
                self.locate[name] = (group_index, j)

    def _pack_greedily(
        self, specs: Sequence[Tuple[str, CompiledSpec]], width: int, cap: int
    ) -> None:
        """Pack specs into groups in order, sealing a group when the next
        spec would blow the state cap."""
        pending_names: List[str] = []
        pending_specs: List[CompiledSpec] = []
        current: Optional[_ProductGroup] = None
        for name, spec in specs:
            attempt = _build_group(
                tuple(pending_names + [name]), pending_specs + [spec], width, cap
            )
            if attempt is not None:
                pending_names.append(name)
                pending_specs.append(spec)
                current = attempt
            elif current is not None:
                # Adding this spec would blow the cap: seal the group built
                # so far and open a new one with the spec alone (a single
                # spec is always admitted, whatever its size).
                self.groups.append(current)
                pending_names, pending_specs = [name], [spec]
                current = _build_group((name,), [spec], width, None)
            else:
                self.groups.append(_build_group((name,), [spec], width, None))
                pending_names, pending_specs, current = [], [], None
        if current is not None:
            self.groups.append(current)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def new_columns(self, n_objects: int = 0) -> List[list]:
        """One dense state column per group, every object at the group root."""
        return [[group.root] * n_objects for group in self.groups]

    def grow_columns(self, columns: List[list], n_objects: int) -> None:
        """Extend each column so freshly interned objects start at the root."""
        for group, column in zip(self.groups, columns):
            missing = n_objects - len(column)
            if missing > 0:
                column.extend([group.root] * missing)

    def advance_all(self, columns: List[list], batch: EncodedBatch) -> int:
        """Advance every spec over one encoded batch; returns the event count.

        One pass per group; the inner loop is a pure subscript chain.  A
        group whose whole population has collapsed onto its doomed sink (and
        which the batch introduces no new objects to) skips its pass
        entirely -- the doomed-population early exit.
        """
        if not len(batch):
            return 0
        id_list = batch.id_list
        code_list = batch.code_list
        obs = self.obs
        if obs is not None:
            obs.batches_total.inc()
            obs.events_total.inc(len(id_list))
        max_id = batch.max_id
        for group, column in zip(self.groups, columns):
            sink = group.sink
            if sink is not None and max_id < len(column) and all(r is sink for r in column):
                if obs is not None:
                    obs.sink_skips.inc()
                continue  # whole population doomed for every spec of the group
            for o, c in zip(id_list, code_list):
                column[o] = column[o][c]
        return len(id_list)

    # ------------------------------------------------------------------ #
    # Preventive enforcement
    # ------------------------------------------------------------------ #
    def _successor_index(self, group_index: int, state: int, code: int) -> int:
        """The dense successor-state index for one ``(state, code)`` step."""
        return self.groups[group_index].rows[state][code][-1]

    def admissible_code(
        self, columns: List[list], dense: int, code: int, only: Optional[str] = None
    ) -> bool:
        """Whether admitting one encoded event keeps acceptance possible.

        O(1) per group: one successor lookup plus one ``alive`` flag read --
        no replay, no column scan.  ``only`` restricts the question to one
        spec (its ``spec_doomed`` flag); otherwise the event must keep
        *every* spec of the session non-doomed.  Codes outside the kernel's
        alphabet width (or ``-1``) are never admissible: they are outside
        every registered spec's alphabet, so their successor is dead
        everywhere.
        """
        if code < 0 or code >= self.width:
            return not self.groups if only is None else False
        if only is not None:
            group_index, j = self.locate[only]
            state = self.state_of(columns, group_index, dense)
            successor = self._successor_index(group_index, state, code)
            return not self.groups[group_index].spec_doomed[j][successor]
        for group_index, group in enumerate(self.groups):
            state = self.state_of(columns, group_index, dense)
            if not group.alive[self._successor_index(group_index, state, code)]:
                return False
        return True

    def blocking_specs(self, states: Sequence[int], code: int) -> Tuple[str, ...]:
        """The specs a rejected event would have doomed, most specific first.

        ``states`` holds the object's pre-event dense state index per group
        (the shape :meth:`advance_all_enforced` records on each rejection).
        Specs that become doomed *by this event* lead; when none do (the
        object was already doomed before enforcement began), every spec
        doomed at the successor is listed instead.
        """
        newly: List[str] = []
        already: List[str] = []
        for group_index, group in enumerate(self.groups):
            state = states[group_index]
            if code < 0 or code >= self.width:
                successor = None  # outside every alphabet: dead for all specs
            else:
                successor = self._successor_index(group_index, state, code)
            for j, name in enumerate(group.names):
                doomed_after = True if successor is None else bool(
                    group.spec_doomed[j][successor]
                )
                if not doomed_after:
                    continue
                if group.spec_doomed[j][state]:
                    already.append(name)
                else:
                    newly.append(name)
        return tuple(newly) if newly else tuple(already)

    def component_states(self, columns: List[list], name: str) -> List[int]:
        """One spec's per-object DFA state column (decoded from the product).

        The delta-extraction read of re-registration: objects still at the
        spec's initial state need no re-validation after a reset.
        """
        group_index, j = self.locate[name]
        decode = self.groups[group_index].decode
        return [decode[row[-1]][j] for row in columns[group_index]]

    def advance_all_enforced(
        self, columns: List[list], batch: EncodedBatch
    ) -> Tuple[List[list], List[Tuple]]:
        """Screen-and-advance one batch on *copies* of ``columns``.

        The transactional half of ``feed_events(..., enforce=True)``: the
        caller's columns are never touched, so a ``reject_batch`` policy can
        discard the copies wholesale.  Per event, the successor state of
        every group is checked against the group's ``alive`` vector; an
        event whose successor is doomed for any spec is *not* applied and is
        recorded as ``(position, dense id, code, per-group pre-event state
        indices)``.  Later events of the same object screen against the
        state *without* the rejected event -- exactly the ``reject_event``
        skip-and-continue semantics.  Returns ``(new columns, rejections)``;
        rejections are in position order.
        """
        copies = [list(column) for column in columns]
        rejections: List[Tuple] = []
        id_list = batch.id_list
        code_list = batch.code_list
        if len(copies) == 1:
            column = copies[0]
            alive = self.groups[0].alive
            for p, (o, c) in enumerate(zip(id_list, code_list)):
                row = column[o]
                successor = row[c]
                if alive[successor[-1]]:
                    column[o] = successor
                else:
                    rejections.append((p, o, c, (row[-1],)))
            return copies, rejections
        alive_flags = [group.alive for group in self.groups]
        for p, (o, c) in enumerate(zip(id_list, code_list)):
            rows = [column[o] for column in copies]
            successors = [row[c] for row in rows]
            if all(
                flags[successor[-1]]
                for flags, successor in zip(alive_flags, successors)
            ):
                for column, successor in zip(copies, successors):
                    column[o] = successor
            else:
                rejections.append((p, o, c, tuple(row[-1] for row in rows)))
        return copies, rejections

    def fatal_histories(
        self, code_list, lengths: Sequence[int]
    ) -> Dict[str, List[Optional[int]]]:
        """Per-spec first-fatal indices for contiguous per-history code runs.

        The whole-history analogue of :func:`repro.engine.diagnostics.
        replay`: for each history and spec, the index of the first event
        after which acceptance became impossible -- ``None`` when the
        history stays salvageable throughout, ``-1`` when the spec's
        language is empty (doomed before any event).  This is the screening
        primitive behind ``engine.screen_histories``.
        """
        results: Dict[str, List[Optional[int]]] = {}
        for group in self.groups:
            root = group.root
            root_index = root[-1]
            n_specs = len(group.specs)
            doomed = group.spec_doomed
            per_spec: List[List[Optional[int]]] = [[] for _ in range(n_specs)]
            position = 0
            for length in lengths:
                fatal: List[Optional[int]] = [
                    -1 if doomed[j][root_index] else None for j in range(n_specs)
                ]
                pending = fatal.count(None)
                if pending:
                    r = root
                    for offset in range(length):
                        r = r[code_list[position + offset]]
                        index = r[-1]
                        for j in range(n_specs):
                            if fatal[j] is None and doomed[j][index]:
                                fatal[j] = offset
                                pending -= 1
                        if not pending:
                            break
                position += length
                for j in range(n_specs):
                    per_spec[j].append(fatal[j])
            for j, name in enumerate(group.names):
                results[name] = per_spec[j]
        return results

    def verdicts_of(self, name: str, column_set: List[list], seen: Iterable[int]) -> List[bool]:
        """One spec's verdicts for the dense ids in ``seen``, in ``seen`` order."""
        group_index, j = self.locate[name]
        accepting = self.groups[group_index].accepting[j]
        column = column_set[group_index]
        if _is_prefix(seen):
            rows = column[: len(seen)]
        else:
            rows = map(column.__getitem__, seen)
        return [accepting[row[-1]] == 1 for row in rows]

    def state_of(self, columns: List[list], group_index: int, dense: int) -> int:
        """The dense product-state index of one object in one group.

        Objects outside the column (never fed) rest at the group root.  This
        is the kind-neutral read: fused columns hold row references, vector
        columns hold the indices themselves, and both answer the same int.
        """
        column = columns[group_index]
        if 0 <= dense < len(column):
            return column[dense][-1]
        return self.groups[group_index].root[-1]

    def index_columns(self, columns: List[list]) -> List[List[int]]:
        """Per-group dense product-state indices -- the kind-neutral view of
        a column set, the interchange format for state translation and
        snapshots across kernel kinds."""
        return [[row[-1] for row in column] for column in columns]

    def _columns_from_indices(self, index_columns: List[List[int]]) -> List[list]:
        """Materialize kind-specific columns from dense state indices.

        The write-side counterpart of :meth:`index_columns`; every index
        must already be materialized in its group (``ensure_state``).
        """
        return [
            list(map(group.rows.__getitem__, indices))
            for group, indices in zip(self.groups, index_columns)
        ]

    def translate_columns(
        self,
        previous: "FusedKernel",
        columns: List[list],
        reset: Sequence[str] = (),
    ) -> List[list]:
        """Carry per-object states from ``previous`` into this kernel.

        Specs named in ``reset`` restart at their (new) initial state; every
        other spec keeps its progress -- compiled tables are deterministic,
        so state numbers transfer across recompiles and kernel rebuilds.
        Memoized per distinct cross-group state signature.  ``previous`` may
        be of a different kernel kind: states travel as dense indices via
        :meth:`index_columns`, so a stream can switch between the fused and
        vector kernels mid-session without losing progress.
        """
        index_columns = previous.index_columns(columns)
        n_objects = len(index_columns[0]) if index_columns else 0
        resets = set(reset)
        memo: Dict[Tuple[int, ...], List[int]] = {}
        fresh: List[List[int]] = [[] for _ in self.groups]
        initials = {
            name: self.groups[gi].specs[j].initial for name, (gi, j) in self.locate.items()
        }
        for o in range(n_objects):
            signature = tuple(column[o] for column in index_columns)
            indices = memo.get(signature)
            if indices is None:
                states: Dict[str, int] = {}
                for group, index in zip(previous.groups, signature):
                    components = group.decode[index]
                    for j, name in enumerate(group.names):
                        states[name] = components[j]
                for name in self.names:
                    if name in resets or name not in states:
                        states[name] = initials[name]
                indices = [
                    group.ensure_state(tuple(states[name] for name in group.names))
                    for group in self.groups
                ]
                memo[signature] = indices
            for target, index in zip(fresh, indices):
                target.append(index)
        return self._columns_from_indices(fresh)

    def columns_from_states(
        self, states: Dict[str, Sequence[int]], n_objects: int
    ) -> List[list]:
        """Dense state columns rebuilt from *per-spec* DFA state columns.

        The general restore path of :mod:`repro.engine.snapshot`: compiled
        tables are deterministic, so per-spec state integers are stable
        across processes and kernel rebuilds; each object's cross-spec
        signature is materialized into this kernel's product rows via
        ``ensure_state`` (memoized per distinct signature, so the loop cost
        is dominated by the zip, not the product walk).
        """
        index_columns: List[List[int]] = []
        for group in self.groups:
            group_states = [states[name] for name in group.names]
            memo: Dict[Tuple[int, ...], int] = {}
            indices: List[int] = []
            append = indices.append
            for signature in zip(*group_states):
                index = memo.get(signature)
                if index is None:
                    index = memo[signature] = group.ensure_state(signature)
                append(index)
            if len(indices) != n_objects:  # zero-spec group cannot happen; guard anyway
                indices.extend([group.root[-1]] * (n_objects - len(indices)))
            index_columns.append(indices)
        return self._columns_from_indices(index_columns)

    # ------------------------------------------------------------------ #
    # Snapshot payloads
    # ------------------------------------------------------------------ #
    def snapshot_groups(self, columns: List[list]) -> List[Dict]:
        """Compact per-group wire payloads for :mod:`repro.engine.snapshot`.

        The *occupied* product states are listed once as per-spec component
        tuples and the per-object column ships as narrow-dtype indices into
        that list.  The format is identical across kernel kinds, so a
        snapshot written under one kind restores under the other.
        """
        groups: List[Dict] = []
        for group, indices in zip(self.groups, self.index_columns(columns)):
            occupied = sorted(set(indices))
            position = {index: p for p, index in enumerate(occupied)}
            groups.append(
                {
                    "names": group.names,
                    "states": [group.decode[index] for index in occupied],
                    "column": _pack_column(list(map(position.__getitem__, indices))),
                }
            )
        return groups

    def restore_group_columns(
        self, groups: Sequence[Dict], initials: Dict[str, int], resets: set
    ) -> Optional[List[list]]:
        """Columns rebuilt group-for-group when the snapshot grouping matches.

        The common restore (same specs, same registration order, same
        product packing): each *occupied* product state is re-materialized
        exactly once and the per-object column is one C-speed map through
        the lookup list.  Returns ``None`` when this kernel groups specs
        differently, handing over to the general per-spec translation path
        (:meth:`columns_from_states`).
        """
        if len(groups) != len(self.groups):
            return None
        for payload, group in zip(groups, self.groups):
            if tuple(payload["names"]) != group.names:
                return None
        index_columns: List[List[int]] = []
        for payload, group in zip(groups, self.groups):
            states = payload["states"]
            if resets.intersection(group.names):
                states = [
                    tuple(
                        initials[name] if name in resets else component
                        for name, component in zip(group.names, signature)
                    )
                    for signature in states
                ]
            lookup = [group.ensure_state(tuple(signature)) for signature in states]
            index_columns.append(self._unpack_indices(lookup, payload["column"]))
        return self._columns_from_indices(index_columns)

    def _unpack_indices(self, lookup: List[int], packed: Tuple) -> List[int]:
        """A packed snapshot column of positions into ``lookup``, resolved
        to dense state indices (in the layout :meth:`_columns_from_indices`
        reads)."""
        return list(map(lookup.__getitem__, _unpack_column(packed, limit=COLUMN_WIRE_LIMIT)))

    # ------------------------------------------------------------------ #
    # Batch checking
    # ------------------------------------------------------------------ #
    def check_histories(
        self, code_list: List[int], lengths: Sequence[int]
    ) -> Dict[str, List[bool]]:
        """Per-spec verdicts for contiguous per-history code runs."""
        obs = self.obs
        if obs is not None:
            obs.histories_total.inc(len(lengths))
        verdicts: Dict[str, List[bool]] = {}
        for group in self.groups:
            root = group.root
            final: List[int] = []
            append = final.append
            position = 0
            for length in lengths:
                r = root
                for c in code_list[position : position + length]:
                    r = r[c]
                append(r[-1])
                position += length
            for j, name in enumerate(group.names):
                accepting = group.accepting[j]
                verdicts[name] = list(map(bool, map(accepting.__getitem__, final)))
        return verdicts

    def check_history_set(self, history_set: ColumnarHistorySet) -> Dict[str, List[bool]]:
        """Per-spec verdicts for a whole encoded history set (kind-specific).

        The serial entry point of ``check_batch_all``: subclasses may read
        the set's columns in their native layout instead of via the plain
        lists.
        """
        return self.check_histories(history_set.code_list, history_set.lengths())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "+".join(str(len(group)) for group in self.groups)
        return f"FusedKernel({len(self.names)} specs, states {sizes})"


__all__ = [
    "COLUMN_WIRE_LIMIT",
    "PRODUCT_STATE_CAP",
    "ObjectInterner",
    "EncodedBatch",
    "ColumnarHistorySet",
    "FusedKernel",
]
