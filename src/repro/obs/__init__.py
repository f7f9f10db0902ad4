"""Runtime observability: metrics, span tracing, and engine introspection.

The engine layers (:mod:`repro.engine`) are permanently instrumented, but
the instrumentation is **off by default** and its disabled path is a single
attribute check -- no instrument lookups, no allocations, no timestamps.
Switching it on is process-wide::

    from repro import obs

    obs.enable()                        # metrics + spans from here on
    engine = HistoryCheckerEngine()     # instruments resolve at construction
    ...
    print(obs.default_registry().render_text())   # Prometheus text lines
    for span in obs.recent_spans():
        print(span.render())            # timed span trees

Scoping: metrics land in the process-global :func:`default_registry`
unless an engine is built with its own ``obs=MetricsRegistry(...)`` (the
isolation future multi-tenant frontends need); spans always go through the
process :data:`repro.obs.spans.TRACER`.  ``obs.enable(registry=...)``
swaps the default registry, so tests get a clean slate.

Pieces:

* :mod:`repro.obs.metrics` -- counters/gauges/fixed-bucket histograms with
  per-thread lock-free accumulation and thread-safe merge-on-read, plus the
  ``render_text``/``to_dict`` exposition surface;
* :mod:`repro.obs.spans` -- the :func:`trace` context manager building
  in-process span trees;
* :mod:`repro.obs.instruments` -- the engine's instrument catalog,
  pre-resolved so hot paths never touch the registry;
* ``python -m repro.obs`` -- runs a workload against an instrumented
  engine and prints the metrics/span report (:mod:`repro.obs.__main__`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import NOOP_SPAN, TRACER, Span, Tracer

#: The process-global registry engines share unless given their own.
_DEFAULT_REGISTRY = MetricsRegistry("default")

#: The process-wide switch; read via :func:`enabled`, flipped by
#: :func:`enable`/:func:`disable`.  Hot paths never read this directly --
#: they check the instruments resolved at construction time.
_ENABLED = False


def enabled() -> bool:
    """Whether observability is on for newly constructed engines."""
    return _ENABLED


def enable(registry: Optional[MetricsRegistry] = None, spans: bool = True) -> MetricsRegistry:
    """Switch metrics (and, by default, span tracing) on process-wide.

    ``registry`` replaces the default registry when given -- handing in a
    fresh one is the idiomatic clean slate for tests and benchmarks.
    Returns the registry now serving as the default.
    """
    global _ENABLED, _DEFAULT_REGISTRY
    if registry is not None:
        _DEFAULT_REGISTRY = registry
    _ENABLED = True
    TRACER.enabled = spans
    return _DEFAULT_REGISTRY


def disable() -> None:
    """Switch observability off (existing engines keep their instruments)."""
    global _ENABLED
    _ENABLED = False
    TRACER.enabled = False


def default_registry() -> MetricsRegistry:
    """The process-global registry (live regardless of the switch)."""
    return _DEFAULT_REGISTRY


def render_text() -> str:
    """Prometheus text exposition of the default registry."""
    return _DEFAULT_REGISTRY.render_text()


def trace(name: str, **meta):
    """Open a timed span (a shared no-op context manager while disabled)."""
    return TRACER.trace(name, **meta)


def current_span() -> Optional[Span]:
    """This thread's innermost open span, or ``None``."""
    return TRACER.current()


def recent_spans() -> List[Span]:
    """Finished root spans, oldest first (bounded ring)."""
    return TRACER.recent()


def clear_spans() -> None:
    """Drop the finished-span ring."""
    TRACER.clear()


__all__ = [
    "DEFAULT_BUCKETS",
    "NOOP_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "TRACER",
    "clear_spans",
    "current_span",
    "default_registry",
    "disable",
    "enable",
    "enabled",
    "recent_spans",
    "render_text",
    "trace",
]
