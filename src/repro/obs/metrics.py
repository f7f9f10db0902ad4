"""Zero-dependency metrics: counters, gauges, fixed-bucket histograms.

The registry is built for a *monitoring monitor*: the history-checker
engine increments a handful of counters per **batch** (never per event), so
an instrument's hot path must cost a dict-free attribute chase and one
integer add -- and must stay correct when several streaming threads share
one engine.

The concurrency design is per-thread local accumulation with a thread-safe
merge, the classic "sharded counter":

* every instrument keeps one *cell* per writer thread (a plain mutable
  list, reached through ``threading.local``), so the write path never takes
  a lock and never races -- each thread only ever touches its own cell;
* reading a value (:meth:`Counter.value`, :meth:`MetricsRegistry.to_dict`,
  :meth:`MetricsRegistry.render_text`) sums the cells under the
  instrument's lock, which also guards cell *registration* (the only
  cross-thread structural mutation).

Cells of finished threads are kept: a counter never forgets contributions,
mirroring Prometheus counter semantics.  Gauges are last-write-wins (a
single reference assignment, atomic under the GIL) and optionally
*callback-backed* for values that are cheaper to read than to track, e.g.
cache sizes.

Instruments are identified by ``(name, sorted label items)``; asking the
registry for the same identity returns the same instrument, asking with a
different type raises.  :meth:`MetricsRegistry.render_text` emits
Prometheus text exposition (``# HELP`` / ``# TYPE`` / sample lines), which
is what a future HTTP frontend serves verbatim.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (seconds): tuned for batch checks and
#: feeds, 1ms to 10s.  ``+Inf`` is implicit -- the overflow bucket.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_name(name: str, labels: LabelItems, suffix: str = "", extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if parts:
        return f"{name}{suffix}{{{','.join(parts)}}}"
    return f"{name}{suffix}"


class _Instrument:
    """Shared identity plumbing of every instrument kind."""

    __slots__ = ("name", "help", "labels", "_lock", "_local", "_cells")

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labels: LabelItems) -> None:
        self.name = name
        self.help = help_text
        self.labels = labels
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cells: List[list] = []

    def _cell(self) -> list:
        """This thread's private accumulation cell, registering it on first use."""
        try:
            return self._local.cell
        except AttributeError:
            cell = self._fresh_cell()
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
            return cell

    def _fresh_cell(self) -> list:  # pragma: no cover - overridden
        raise NotImplementedError

    def identity(self) -> Tuple[str, LabelItems]:
        return (self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({_render_name(self.name, self.labels)})"


class Counter(_Instrument):
    """A monotonically increasing count, summed across per-thread cells."""

    __slots__ = ()

    kind = "counter"

    def _fresh_cell(self) -> list:
        return [0]

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (lock-free: this thread's cell is private to it)."""
        self._cell()[0] += amount

    def value(self) -> float:
        """The merged total across every thread that ever incremented."""
        with self._lock:
            return sum(cell[0] for cell in self._cells)


class Gauge(_Instrument):
    """A point-in-time value: set/inc/dec, or computed by a callback on read."""

    __slots__ = ("_value", "_callback")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: LabelItems,
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, help_text, labels)
        self._value: float = 0
        self._callback = callback

    def set(self, value: float) -> None:
        """Last write wins (one reference store; atomic under the GIL)."""
        self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def set_callback(self, callback: Optional[Callable[[], float]]) -> None:
        """Read the gauge from ``callback`` instead of the stored value."""
        self._callback = callback

    def value(self) -> float:
        if self._callback is not None:
            return self._callback()
        return self._value


class Histogram(_Instrument):
    """Fixed-bucket distribution with per-thread cells.

    A cell is ``[count, sum, bucket_counts...]`` where ``bucket_counts[i]``
    counts observations ``<= bounds[i]`` *exclusively* of earlier buckets
    (non-cumulative internally; :meth:`snapshot` emits Prometheus-style
    cumulative ``le`` buckets).  The last bucket is the ``+Inf`` overflow.
    """

    __slots__ = ("bounds",)

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: LabelItems,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        self.bounds = bounds
        super().__init__(name, help_text, labels)

    def _fresh_cell(self) -> list:
        return [0, 0.0] + [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation (lock-free; this thread's cell only)."""
        cell = self._cell()
        cell[0] += 1
        cell[1] += value
        cell[2 + bisect_left(self.bounds, value)] += 1

    def snapshot(self) -> Dict[str, object]:
        """``{"count", "sum", "buckets"}`` with *cumulative* bucket counts."""
        with self._lock:
            merged = [0, 0.0] + [0] * (len(self.bounds) + 1)
            for cell in self._cells:
                for i, part in enumerate(cell):
                    merged[i] += part
        cumulative = []
        running = 0
        for count in merged[2:]:
            running += count
            cumulative.append(running)
        bucket_map = {str(bound): cumulative[i] for i, bound in enumerate(self.bounds)}
        bucket_map["+Inf"] = cumulative[-1]
        return {"count": merged[0], "sum": merged[1], "buckets": bucket_map}

    def value(self) -> float:
        """The observation count (the scalar summary used by ``to_dict``)."""
        return self.snapshot()["count"]


class MetricsRegistry:
    """A named collection of instruments with a text/dict exposition surface.

    One process-global default registry serves ad-hoc use
    (:func:`repro.obs.default_registry`); every engine may carry its own so
    future multi-tenant frontends keep tenants' numbers isolated.  Creation
    is get-or-create by ``(name, labels)``: two call sites asking for the
    same counter share it, asking for the same name with a different
    instrument type raises ``TypeError``.
    """

    __slots__ = ("name", "_lock", "_instruments", "_help")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelItems], _Instrument] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Instrument creation
    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name: str, help_text: str, labels: Dict[str, str], **kwargs):
        key = (name, _label_items(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, help_text or self._help.get(name, ""), key[1], **kwargs)
                self._instruments[key] = instrument
                if help_text:
                    self._help[name] = help_text
                else:
                    self._help.setdefault(name, "")
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is already registered as a {instrument.kind}, "
                    f"not a {cls.kind}"
                )
            return instrument

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        callback: Optional[Callable[[], float]] = None,
        **labels: str,
    ) -> Gauge:
        """Get or create a gauge (optionally callback-backed)."""
        gauge = self._get_or_create(Gauge, name, help_text, labels)
        if callback is not None:
            gauge.set_callback(callback)
        return gauge

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get_or_create(Histogram, name, help_text, labels, buckets=buckets)

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #
    def instruments(self) -> List[_Instrument]:
        """Every registered instrument, sorted by name then labels."""
        with self._lock:
            items = list(self._instruments.items())
        return [instrument for _key, instrument in sorted(items, key=lambda kv: kv[0])]

    def to_dict(self) -> Dict[str, object]:
        """``rendered name -> value`` (histograms expand to snapshot dicts)."""
        out: Dict[str, object] = {}
        for instrument in self.instruments():
            rendered = _render_name(instrument.name, instrument.labels)
            if isinstance(instrument, Histogram):
                out[rendered] = instrument.snapshot()
            else:
                out[rendered] = instrument.value()
        return out

    def render_text(self) -> str:
        """Prometheus text exposition of every instrument.

        The format a scrape endpoint serves: ``# HELP`` and ``# TYPE``
        headers once per metric name, one sample line per label set
        (histograms expand into ``_bucket``/``_sum``/``_count`` series).
        """
        lines: List[str] = []
        seen_headers = set()
        for instrument in self.instruments():
            name = instrument.name
            if name not in seen_headers:
                seen_headers.add(name)
                help_text = self._help.get(name) or instrument.help
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {instrument.kind}")
            labels = instrument.labels
            if isinstance(instrument, Histogram):
                snap = instrument.snapshot()
                for bound in list(map(str, instrument.bounds)) + ["+Inf"]:
                    rendered = _render_name(name, labels, "_bucket", f'le="{bound}"')
                    lines.append(f"{rendered} {snap['buckets'][bound]}")
                lines.append(f"{_render_name(name, labels, '_sum')} {snap['sum']}")
                lines.append(f"{_render_name(name, labels, '_count')} {snap['count']}")
            else:
                value = instrument.value()
                text = str(int(value)) if float(value).is_integer() else repr(float(value))
                lines.append(f"{_render_name(name, labels)} {text}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({self.name!r}, {len(self)} instruments)"


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
