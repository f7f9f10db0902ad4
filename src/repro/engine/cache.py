"""LRU cache for compiled engine artifacts.

Compiling a spec (intern + determinize + minimize + table flattening) is
the expensive part of the engine; checking events against it is cheap.  The
engine therefore keeps compiled tables in a bounded least-recently-used
cache keyed by ``(spec name, generation)`` -- and a second, smaller
instance holds multi-spec product kernels keyed by spec generations and the
shared-alphabet version (:mod:`repro.engine.vector`).  Because compilation
and kernel construction are deterministic (:mod:`repro.engine.compiler`),
an entry may be evicted at any point -- mid-stream included -- and
transparently rebuilt on next use without invalidating the integer cursor
states or product rows minted against the evicted artifact.

The cache is **thread-safe**: every structural operation and every stat
update happens under one lock, so concurrent streams sharing an engine can
race ``get_or_compile`` against eviction without corrupting the LRU order
or the counters (the pre-observability implementation bumped its counters
outside any lock, so two racing threads could lose increments -- invisible
until the counters became part of the exposition surface).  The factory
itself runs *outside* the lock: compilation is deterministic, so the worst
case of a racing double-compile is briefly redundant work, never a wrong
artifact.

When observability is on (:mod:`repro.obs`), the engine binds counters via
:meth:`SpecCache.bind_metrics`; the cache then mirrors every hit, miss and
eviction into them, making cache behaviour visible in
``registry.render_text()`` without a polling loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional


class SpecCache:
    """A bounded, thread-safe LRU mapping ``key -> artifact`` with counters."""

    __slots__ = ("_maxsize", "_entries", "_lock", "_metrics", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("the spec cache needs room for at least one entry")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: ``(hits, misses, evictions)`` observability counters, or ``None``.
        self._metrics = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int:
        """The capacity of the cache."""
        return self._maxsize

    def bind_metrics(self, hits, misses, evictions) -> None:
        """Mirror the counters into observability instruments from now on.

        The arguments are :class:`repro.obs.metrics.Counter`-shaped (any
        object with ``inc(n)``); past counts are carried over so binding
        late never under-reports.
        """
        with self._lock:
            self._metrics = (hits, misses, evictions)
            if self.hits:
                hits.inc(self.hits)
            if self.misses:
                misses.inc(self.misses)
            if self.evictions:
                evictions.inc(self.evictions)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached artifact for ``key`` (refreshing its recency), if present."""
        with self._lock:
            spec = self._entries.get(key)
            if spec is None:
                self.misses += 1
                metrics = self._metrics
                if metrics is not None:
                    metrics[1].inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            metrics = self._metrics
            if metrics is not None:
                metrics[0].inc()
            return spec

    def get_or_compile(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The cached artifact for ``key``, compiling and inserting it on a miss.

        The factory runs outside the lock; a concurrent miss on the same key
        may compile twice, but compilation is deterministic so either result
        is correct and the last insert wins.
        """
        spec = self.get(key)
        if spec is None:
            spec = factory()
            self.put(key, spec)
        return spec

    def put(self, key: Hashable, spec: Any) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            self._entries[key] = spec
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                evicted += 1
            if evicted:
                self.evictions += evicted
                metrics = self._metrics
                if metrics is not None:
                    metrics[2].inc(evicted)

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry (used when a spec source is re-registered)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current size, read atomically."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
            }

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


__all__ = ["SpecCache"]
