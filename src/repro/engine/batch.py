"""The columnar event pipeline: encode-once batches and the product groups.

The first engine re-paid a representation tax on every sweep: each spec
re-hashed every event's frozenset role set through its own ``codes`` dict
and object ids lived in per-spec dicts.  This module makes a *columnar*
encoding the engine's native interchange format instead:

* :class:`ObjectInterner` -- object ids become dense integers in
  first-appearance order.  Small non-negative ``int`` ids go through a
  numpy *slot table* indexed by the id, every other int64 ``int`` id
  (sparse 62-bit keys, negative ids) through an ``int64`` open-addressing
  *hash index*; only ids that are not int64 ``int``s switch the interner
  to a dict.  Switches are sticky;
* :class:`EncodedBatch` -- an interleaved event stream encoded **once**
  against the engine's shared :class:`repro.formal.alphabet.RoleSetAlphabet`
  into ``int64`` ndarray id/code columns (list columns only on the dict
  path, i.e. for non-int ids), with the other layout derived lazily for
  the consumers that need it;
* :class:`ColumnarHistorySet` -- whole-history batches as one flat code
  column plus offsets, the unit of batch checking;
* :class:`_ProductGroup` -- the reachable *product* automaton of a group
  of specs, built under a state cap with dense state numbering; product
  states that are doomed for every spec of the group collapse onto one
  absorbing sink.  :class:`repro.engine.vector.VectorKernel` packs the
  registered specs into such groups and advances them;
* the packed-column codec -- ``(typecode, zlib flag, bytes)`` integer
  columns in the narrowest dtype, shared by snapshots and the journal.

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

import numpy as _np

from repro.engine.compiler import CompiledSpec
from repro.formal.alphabet import RoleSetAlphabet

Symbol = Hashable
ObjectId = Hashable
Event = Tuple[ObjectId, Symbol]

#: Product states per group before the kernel starts a new group.
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

#: Hash-index sizing: the code table is a power of two of at least
#: ``_HASH_FLOOR`` entries, kept at most half full.
_HASH_FLOOR = 1 << 10

#: The hash index's multiplier (2**64 / golden ratio, odd): an id's high
#: half is folded onto its low half, the product's top bits pick the slot.
_HASH_MULT = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1

_INT_ONLY = {int}


class ObjectInterner:
    """Dense integer codes for stream objects, append-only like the alphabet.

    Codes are handed out in first-appearance order and never move.  The
    id -> code map lives in one of three representations:

    * a **slot table** -- an ``int64`` ndarray indexed by the id itself,
      ``-1`` marking ids not seen yet -- while every interned id is a
      non-negative ``int`` and the table stays within
      ``_SLOT_FLOOR + _SLOT_FACTOR * len(self)`` slots.  Encoding a column
      is one gather; fresh ids are found with a first-occurrence scatter
      (no dict, no sort).
    * a **hash index** for any other ``int`` ids that fit in int64 (sparse
      62-bit keys, negative ids): a power-of-two ``int64`` code table, at
      most half full and probed linearly from a hash of the id's folded
      bits, plus an ``int64`` keys-by-code column.  Lookups, and inserts
      that dedupe fresh ids in first-appearance order, run as array passes
      (one per probe round); point reads (:meth:`code_of`) stay scalar.
    * a **dict** ``{id: code}`` for everything else -- strings, tuples,
      bools, ints past int64.

    The array paths append the caller's own id objects to the object list,
    so no new Python ints are minted.  Modes only move forward (slot ->
    hash -> dict, or slot -> dict) and each switch is sticky: the first
    column a representation cannot hold converts the interner once,
    rebuilding the next map from the codes held so far.  All three hand
    out the same codes for the same input, so the choice is invisible
    outside this class.
    """

    __slots__ = ("_objects", "_slots", "_table", "_keys", "_probe", "_codes")

    def __init__(self) -> None:
        self._objects: List[ObjectId] = []
        #: Exactly one map is live: the slot table, the hash index (code
        #: table plus keys-by-code buffer) or the dict; the others are
        #: ``None``.
        self._slots = _np.empty(0, dtype=_np.int64)
        self._table = None
        self._keys = None
        #: The hash index as point reads use it: ``(memoryview of the code
        #: table, shift, mask)``, so :meth:`code_of` stays in Python ints.
        self._probe = None
        self._codes: Optional[Dict[ObjectId, int]] = None

    def __len__(self) -> int:
        return len(self._objects)

    def _slot_bound(self, extra: int = 0) -> int:
        """Slots the table may span once ``extra`` more objects are interned."""
        return _SLOT_FLOOR + _SLOT_FACTOR * (len(self._objects) + extra)

    def _held_ids(self):
        """The interned ids in code order, as an ``int64`` ndarray (array modes)."""
        if self._slots is None:
            return self._keys[: len(self._objects)]
        slots = self._slots
        held = _np.flatnonzero(slots >= 0)
        ids = _np.empty(len(self._objects), dtype=_np.int64)
        ids[slots[held]] = held
        return ids

    def _to_hash_mode(self) -> None:
        """Leave slot mode for good: the hash index is built from the slot table."""
        ids = self._held_ids()
        self._slots = None
        self._keys = _np.empty(max(2 * len(ids), 16), dtype=_np.int64)
        self._keys[: len(ids)] = ids
        self._rehash(0)

    def _to_dict_mode(self) -> None:
        """Leave the array modes for good: the dict is rebuilt from the object list."""
        if self._codes is None:
            objects = self._objects
            self._codes = dict(zip(objects, range(len(objects))))
            self._slots = self._table = self._keys = self._probe = None

    def _reserve(self, high: int) -> None:
        """Grow the slot table to hold id ``high`` (doubling, capped at the bound)."""
        slots = self._slots
        if high < len(slots):
            return
        grown = _np.full(max(high + 1, min(2 * len(slots), self._slot_bound())), -1, _np.int64)
        grown[: len(slots)] = slots
        self._slots = grown

    def _rehash(self, room: int) -> None:
        """A fresh code table, doubled until ``room`` more ids fit at load
        at most one half, holding every held key."""
        count = len(self._objects)
        size = _HASH_FLOOR if self._table is None else len(self._table)
        while size < 2 * (count + room):
            size *= 2
        self._table = table = _np.full(size, -1, dtype=_np.int64)
        _first, slots = _claim(table, self._keys[:count])
        table[slots] = _np.arange(count)
        self._probe = (memoryview(table), 65 - size.bit_length(), size - 1)

    def intern(self, object_id: ObjectId) -> int:
        """The dense code of one object, allocating a fresh one on first sight."""
        return int(self.encode_column((object_id,))[0])

    def intern_column(self, column: Sequence[ObjectId]) -> List[int]:
        """Encode a whole id column into a list of codes."""
        codes = self.encode_column(column)
        return codes if isinstance(codes, list) else codes.tolist()

    def encode_column(self, column: Sequence[ObjectId]):
        """Encode a whole id column: the codes as an ``int64`` ndarray when
        every id is an int64 ``int``, as a list on the dict path."""
        if not len(column):
            return []
        if self._codes is None:
            ids = _int_array(column)
            if ids is not None:
                return self._intern_ids(ids, column)
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

    def _intern_ids(self, ids, column: Optional[Sequence[ObjectId]], fresh_only=False):
        """The codes of the non-empty int64 id array ``ids`` (array modes).

        Fresh objects are taken from ``column``, the caller's own id objects
        (no new Python ints are minted), or from ``ids`` when there is none.
        With ``fresh_only`` a column that repeats an id or names a held one
        raises ``ValueError`` before anything is interned.
        """
        if self._slots is not None:
            codes = self._slot_intern(ids, column, fresh_only)
            if codes is not None:
                return codes
            self._to_hash_mode()
        return self._hash_intern(ids, column, fresh_only)

    def _slot_intern(self, ids, column, fresh_only):
        """The slot-table half of :meth:`_intern_ids`: ``None`` -- with
        nothing interned -- when the table cannot hold ``ids``."""
        high = int(ids.max())
        # len(ids) bounds the fresh ids, so ids failing this check would
        # leave the table past its bound however many are new.
        if int(ids.min()) < 0 or high >= self._slot_bound(len(ids)):
            return None
        self._reserve(high)
        slots = self._slots
        codes = slots[ids]
        where = _np.flatnonzero(codes < 0)
        if fresh_only and where.size != ids.size:
            raise ValueError("an object-id payload repeats an id")
        if where.size:
            fresh = ids[where]
            order = _np.arange(fresh.size)
            slots[fresh[::-1]] = order[::-1]  # last write wins = first occurrence
            new = where[slots[fresh] == order]
            if fresh_only and new.size != fresh.size:
                slots[fresh] = -1
                raise ValueError("an object-id payload repeats an id")
            start = len(self._objects)
            slots[ids[new]] = _np.arange(start, start + new.size)
            codes[where] = slots[fresh]
            self._extend_objects(ids, column, new)
            # The exact post-intern bound: a sparse column may have grown
            # the table past it -- its codes stand, the hash index takes over.
            if len(slots) > self._slot_bound():
                self._to_hash_mode()
        return codes

    def _hash_intern(self, ids, column, fresh_only):
        """The hash-index half of :meth:`_intern_ids`."""
        codes = _lookup(self._table, self._keys, ids)
        where = _np.flatnonzero(codes < 0)
        if fresh_only and where.size != ids.size:
            raise ValueError("an object-id payload repeats an id")
        if where.size:
            fresh = ids[where]
            start = len(self._objects)
            if 2 * (start + fresh.size) > len(self._table):
                self._rehash(fresh.size)
            first, slots = _claim(self._table, fresh)
            # Positions whose id first occurs there, in first-appearance order.
            firsts = _np.flatnonzero(first == _np.arange(fresh.size))
            if fresh_only and firsts.size != fresh.size:
                self._table[slots[firsts]] = -1
                raise ValueError("an object-id payload repeats an id")
            count = start + firsts.size
            fresh_codes = _np.empty(fresh.size, dtype=_np.int64)
            fresh_codes[firsts] = _np.arange(start, count)
            self._table[slots[firsts]] = fresh_codes[firsts]
            codes[where] = fresh_codes[first]
            keys = self._keys
            if count > len(keys):
                grown = _np.empty(max(count, 2 * len(keys)), dtype=_np.int64)
                grown[:start] = keys[:start]
                keys = self._keys = grown
            keys[start:count] = fresh[firsts]
            self._extend_objects(ids, column, where[firsts])
        return codes

    def _extend_objects(self, ids, column, new) -> None:
        """Append the objects at positions ``new`` of the id column."""
        if column is None:
            self._objects.extend(ids[new].tolist())
        elif new.size == ids.size:
            self._objects.extend(column)  # every id fresh and distinct
        else:
            self._objects.extend(map(column.__getitem__, new.tolist()))

    def code_of(self, object_id: ObjectId, default: int = -1) -> int:
        """The existing code of ``object_id``, or ``default`` -- never interns.

        The array modes keep dict-lookup semantics.  Slot mode: every key
        is an ``int`` below the table length, and such an int hashes to
        itself, so the only candidate is the slot at ``hash(object_id)`` --
        matched by identity or ``==`` exactly as a dict would (``True``
        finds ``1``).  Hash mode: every key is an int64 ``int``, so the only
        candidate is the int equal to ``object_id`` (``True``, ``1.0`` and
        ``numpy.int64(1)`` all find ``1``), probed with Python-int
        arithmetic -- a point read costs no numpy round trip.
        """
        slots = self._slots
        if slots is not None:
            slot = hash(object_id)
            if 0 <= slot < len(slots):
                code = int(slots[slot])
                if code >= 0:
                    known = self._objects[code]
                    if known is object_id or known == object_id:
                        return code
            return default
        probe = self._probe
        if probe is None:
            return self._codes.get(object_id, default)
        key = object_id
        if type(key) is not int:
            try:
                key = int(object_id)
            except (TypeError, ValueError, OverflowError):
                return default
            if key != object_id:
                return default
        # _home_slots in Python ints.  A key past int64 lands on some slot
        # but equals no held key, so its probe ends at an empty slot.
        table, shift, mask = probe
        folded = key if key >= 0 else key & _U64
        folded ^= folded >> 32
        slot = ((folded * _HASH_MULT) >> shift) & mask
        objects = self._objects
        while True:
            code = table[slot]
            if code < 0:
                return default
            if objects[code] == key:
                return code
            slot = (slot + 1) & mask

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
        if self._codes is None:
            return bool((self._held_ids() == _np.arange(len(objects))).all())
        return all(type(o) is int and o == c for c, o in enumerate(objects))

    def to_snapshot(self) -> Tuple:
        """The id space as a picklable pair.

        A slot- or hash-mode interner ships its ids as one packed integer
        column in code order (``("ids", packed)``, cut from the slot table or
        the keys column); a dict-mode interner ships its object list.
        :meth:`from_snapshot` inverts both exactly -- codes never move
        across a snapshot round trip.
        """
        if self._codes is not None:
            return ("objects", list(self._objects))
        return ("ids", _pack_array(self._held_ids()))

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
        that repeats an id, or names one already held, raises ``ValueError``
        before anything is interned.
        """
        start = len(self._objects)
        if not len(data):
            return
        if self._codes is None:
            if isinstance(data, _np.ndarray):
                ids, column = data, None
            else:
                ids, column = _int_array(data), data
            if ids is not None:
                self._intern_ids(ids, column, fresh_only=True)
                return
            self._to_dict_mode()
        if isinstance(data, _np.ndarray):
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
        mode = "slots" if self._slots is not None else "hash" if self._codes is None else "dict"
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


def _home_slots(ids, size: int):
    """The home slots of an int64 id array in a code table of ``size``
    (a power of two): the id's high half folded onto its low half, times
    :data:`_HASH_MULT`, top bits -- so ids differing only in high bits (or
    equal modulo ``size``) still spread."""
    folded = ids.view(_np.uint64)
    folded = folded ^ (folded >> _np.uint64(32))
    shift = _np.uint64(65 - size.bit_length())
    return ((folded * _np.uint64(_HASH_MULT)) >> shift).astype(_np.intp)


def _lookup(table, keys, ids):
    """The codes of ``ids`` in the hash index, ``-1`` for ids it does not hold.

    Linear probing, one array pass per probe round over the ids still
    unresolved (at most half the table is full, so rounds stay few).
    """
    mask = len(table) - 1
    slots = _home_slots(ids, len(table))
    codes = table[slots]
    # keys[-1] for an empty slot's -1 is a harmless read: the mask drops it.
    pending = _np.flatnonzero((codes >= 0) & (keys[codes] != ids))
    while pending.size:
        probe = (slots[pending] + 1) & mask
        slots[pending] = probe
        found = table[probe]
        codes[pending] = found
        pending = pending[(found >= 0) & (keys[found] != ids[pending])]
    return codes


def _claim(table, fresh):
    """Claim one empty slot of the code table per distinct id of ``fresh``
    (ids the table does not hold yet; it must have room for all of them).

    Returns ``(first, slots)``: per element, the position of its id's first
    occurrence in ``fresh`` and the slot that id claimed.  A claimed slot
    holds ``-2 - position`` until the caller writes the id's code there.
    Each round every pending element tries its current slot: claims on
    one empty slot resolve to the earliest claimant (last write wins on
    the reversed order), every occurrence of the winning id resolves with
    it -- equal ids walk one probe sequence in lockstep -- and the rest
    probe on.
    """
    mask = len(table) - 1
    slots = _home_slots(fresh, len(table))
    first = _np.empty(fresh.size, dtype=_np.intp)
    pending = _np.arange(fresh.size)
    while pending.size:
        probe = slots[pending]
        empty = _np.flatnonzero(table[probe] == -1)
        table[probe[empty[::-1]]] = -2 - pending[empty[::-1]]
        claimed = table[probe]
        owner = -2 - claimed
        owner[owner < 0] = 0  # a held code, not a claim: never a match below
        mine = (claimed < -1) & (fresh[owner] == fresh[pending])
        first[pending[mine]] = owner[mine]
        pending = pending[~mine]
        slots[pending] = (slots[pending] + 1) & mask
    return first, slots


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


def _pack_array(values) -> Tuple[str, int, bytes]:
    """``(typecode, 0, data)``: an int ndarray in the narrowest typecode that
    fits, uncompressed (the interner's id snapshot, WAL columns).  Only
    ``"q"`` is signed, so a column holding a negative value always packs
    as ``"q"``."""
    if values.size and int(values.min()) < 0:
        typecode = "q"
    else:
        high = int(values.max()) if values.size else 0
        typecode = next((code for code, top in _TYPECODES.items() if high <= top), "q")
    return typecode, 0, values.astype(_np.dtype(typecode), copy=False).tobytes()


def _pack_column(values) -> Tuple[str, int, bytes]:
    """:func:`_pack_array` for non-negative ints (an ndarray or a sequence),
    zlib-compressed when that is smaller (snapshot state and trace columns)."""
    typecode, _flag, raw = _pack_array(_np.asarray(values, dtype=_np.int64))
    packed = zlib.compress(raw, _PAYLOAD_ZLIB_LEVEL)
    if len(packed) < len(raw):
        return typecode, 1, packed
    return typecode, 0, raw


def _unpack_ints(packed: Tuple[str, int, bytes], limit: int, through=None):
    """A packed column decoded into an ``int64`` ndarray, optionally mapped
    through the ``through`` lookup sequence.

    ``limit`` caps the decompressed bytes: untrusted wire parsers (snapshot
    restore, journal replay) must not be zip-bombed into a ``MemoryError``
    by a corrupted or hostile length, so decompression stops at the bound
    and raises ``ValueError`` instead of materializing the claimed size.
    """
    typecode, compressed, data = packed
    if typecode not in _TYPECODES:
        raise ValueError(f"unknown packed column typecode {typecode!r}")
    if compressed:
        decompressor = zlib.decompressobj()
        data = decompressor.decompress(data, limit + 1)
        if len(data) > limit or decompressor.unconsumed_tail:
            raise ValueError(f"packed column inflates past the {limit}-byte bound")
    elif len(data) > limit:
        raise ValueError(f"packed column carries more than the {limit}-byte bound")
    column = _np.frombuffer(data, dtype=_np.dtype(typecode))
    if through is None:
        return column.astype(_np.int64)
    return _np.asarray(through, dtype=_np.int64)[column]


def _split_column(values) -> Tuple[Optional[List[int]], object]:
    """``(list, None)`` or ``(None, int64 ndarray)`` for one batch column."""
    if isinstance(values, _np.ndarray):
        return None, values.astype(_np.int64, copy=False)
    return (values if isinstance(values, list) else list(values)), None


def _column_max(values: Optional[List[int]], array_values) -> int:
    if array_values is not None:
        return int(array_values.max()) if array_values.size else -1
    return max(values, default=-1)


def _packed(values: Optional[List[int]], array_values) -> Tuple[str, int, bytes]:
    """One batch column in the uncompressed :func:`_pack_array` form.

    An ndarray column narrows for the price of one ``max`` and a cast; a
    list column stays 8-byte ``"q"`` rather than pay a Python ``max`` scan.
    """
    if array_values is not None:
        return _pack_array(array_values)
    return "q", 0, array("q", values).tobytes()


class EncodedBatch:
    """An interleaved event batch encoded once into dense integer columns.

    Each column is an ``int64`` ndarray, a plain list, or both.  A batch
    whose ids are int64 ``int``s (slot table or hash index), or decoded
    from the journal, is born as ndarrays -- the kernel's native layout, so
    ``len``, :attr:`max_id` and :attr:`max_code` never touch a list --
    while batches of non-int ids (the dict path) are born as lists.  The
    other form is derived on first use and
    cached: :attr:`id_list` / :attr:`code_list` for the consumers that sweep
    per event in Python (enforcement records, traces), :attr:`id_array` /
    :attr:`code_array` for the kernel.
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
        ``objects`` (a fresh interner when not given).  When the ids are
        int64 ``int``s, both columns come out as ndarrays.
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
        """The dense object-id column as an ``int64`` ndarray."""
        if self._np_ids is None:
            self._np_ids = _np.fromiter(self._id_list, dtype=_np.int64, count=self._len)
        return self._np_ids

    @property
    def code_array(self):
        """The symbol-code column as an ``int64`` ndarray."""
        if self._np_codes is None:
            self._np_codes = _np.fromiter(self._code_list, dtype=_np.int64, count=self._len)
        return self._np_codes

    @property
    def max_id(self) -> int:
        """The largest dense object id in the batch (``-1`` when empty)."""
        if self._max_id is None:
            self._max_id = _column_max(self._id_list, self._np_ids)
        return self._max_id

    def packed_columns(self) -> Tuple[Tuple, Tuple]:
        """Both columns as uncompressed ``(typecode, 0, bytes)`` packed
        columns (:func:`_unpack_ints` reads them): the WAL record layout."""
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

    __slots__ = ("code_list", "offsets", "alphabet", "max_code", "_np_codes")

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
    def code_array(self):
        """The flat code column as an ``int64`` ndarray (built once, cached)."""
        if self._np_codes is None:
            code_list = self.code_list
            self._np_codes = _np.fromiter(code_list, dtype=_np.int64, count=len(code_list))
        return self._np_codes

    @property
    def offset_array(self):
        """The offsets column as a zero-copy ``int64`` ndarray view."""
        return _np.frombuffer(self.offsets, dtype=_np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarHistorySet({len(self)} histories, {len(self.code_list)} events)"


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


__all__ = [
    "COLUMN_WIRE_LIMIT",
    "PRODUCT_STATE_CAP",
    "ObjectInterner",
    "EncodedBatch",
    "ColumnarHistorySet",
]
