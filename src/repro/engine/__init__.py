"""Streaming history-checker engine (the scale layer).

The analyses in :mod:`repro.core` decide properties of *specifications*;
this subpackage checks *data* against them at volume: millions of object
histories, delivered as batches or as one interleaved event stream.  The
pipeline is compile → encode → fuse → check/stream:

* :mod:`repro.engine.compiler` -- compile a spec automaton once into a
  minimized DFA with a flat integer transition table, plus a remap array
  from the engine's shared alphabet (:class:`~repro.engine.compiler.
  CompiledSpec`);
* :mod:`repro.engine.batch` -- the columnar pipeline: encode-once event
  batches and history sets over the shared alphabet and the fused
  multi-spec product kernel;
* :mod:`repro.engine.vector` -- the numpy gather kernel over the same
  product groups (flat narrow-dtype transition tables, chunked
  first-occurrence peeling); selected automatically when numpy is importable (``kernel="auto"``);
* :mod:`repro.engine.cache` -- bounded LRU over compiled specs and fused
  kernels, safe to evict mid-stream because compilation is deterministic;
* :mod:`repro.engine.cursors` -- per-object integer cursors advanced event
  by event (the reference path the fused kernel is pinned against);
* :mod:`repro.engine.diagnostics` -- violation reports: fatal event,
  minimal counterexample, shortest conforming completion, MCL clause spans;
* :mod:`repro.engine.snapshot` -- checkpoint/restore of streaming sessions
  (versioned wire format, fingerprint-validated state translation);
* :mod:`repro.engine.journal` -- write-ahead event journaling plus
  checkpoints: crash-durable streaming sessions and ``recover_stream``;
* :mod:`repro.engine.engine` -- :class:`~repro.engine.engine.
  HistoryCheckerEngine`, the façade tying the pieces together.  A batch
  check encodes its histories once and makes one in-process kernel call
  (``check_history_set`` or ``fatal_histories``); there is no executor
  layer.
"""

from repro.engine.batch import (
    PRODUCT_STATE_CAP,
    ColumnarHistorySet,
    EncodedBatch,
    FusedKernel,
    ObjectInterner,
)
from repro.engine.cache import SpecCache
from repro.engine.compiler import CompiledSpec, compile_spec
from repro.engine.cursors import CursorTable, HistoryCursor
from repro.engine.diagnostics import (
    ClauseDiagnosis,
    EnforcementError,
    EnforcementReport,
    RejectedEvent,
    Violation,
    diagnose,
)
from repro.engine.engine import (
    HistoryCheckerEngine,
    RevalidationReport,
    SpecLintFinding,
    StreamChecker,
)
from repro.engine.journal import DurableStream, JournalError, open_durable, recover
from repro.engine.snapshot import FORMAT_VERSION, SnapshotError, dump_stream, load_stream
from repro.engine.vector import HAVE_NUMPY, VectorKernel

__all__ = [
    "CompiledSpec",
    "compile_spec",
    "SpecCache",
    "HistoryCursor",
    "CursorTable",
    "ObjectInterner",
    "EncodedBatch",
    "ColumnarHistorySet",
    "FusedKernel",
    "VectorKernel",
    "HAVE_NUMPY",
    "PRODUCT_STATE_CAP",
    "DurableStream",
    "JournalError",
    "open_durable",
    "recover",
    "HistoryCheckerEngine",
    "StreamChecker",
    "SpecLintFinding",
    "RevalidationReport",
    "ClauseDiagnosis",
    "Violation",
    "diagnose",
    "EnforcementError",
    "EnforcementReport",
    "RejectedEvent",
    "FORMAT_VERSION",
    "SnapshotError",
    "dump_stream",
    "load_stream",
]
