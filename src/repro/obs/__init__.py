"""Unified observability: one trace/metrics spine behind one API.

Every timeline claim in the paper — kernel/transfer overlap (Fig. 5,
Fig. 11), all-to-all traffic (Fig. 6), probing distributions (Fig. 7) —
is reported through this subsystem:

* :class:`TraceRecorder` — hierarchical measured/modelled spans with
  ``trace_id``/``span_id``/``parent_id`` lineage, merged process-safely
  from :mod:`repro.exec` workers;
* :class:`MetricsRegistry` — named counters/gauges fed by the
  :class:`~repro.core.report.KernelReport` /
  :class:`~repro.multigpu.distributed_table.CascadeReport` /
  :class:`~repro.memory.transfer.TransferRecord` streams;
* exporters — Perfetto ``trace_event`` JSON (:func:`write_trace`),
  flat per-metric JSON rows (:func:`write_metrics`), and the
  shared ASCII Gantt renderer (:func:`render_rows`);
* the :class:`Reportable` protocol every report type in the repo
  implements (``to_dict()`` + ``schema_version``).

Recording is off by default and free when off; enable it globally with
:func:`configure` or scoped with :func:`session` (what ``repro trace``
does).  See ``docs/observability.md``.
"""

from .export import (
    metrics_rows,
    render_rows,
    render_trace,
    to_perfetto,
    validate_trace,
    write_metrics,
    write_trace,
)
from .metrics import MetricsRegistry
from .protocol import SCHEMA_VERSION, Reportable, reportable_dict, to_jsonable
from .runtime import (
    add_span,
    configure,
    enabled,
    get_metrics,
    get_recorder,
    observe_cascade,
    observe_kernel,
    observe_transfers,
    record_shard_spans,
    session,
    span,
)
from .trace import SpanRecord, TraceRecorder

__all__ = [
    # protocol
    "SCHEMA_VERSION",
    "Reportable",
    "reportable_dict",
    "to_jsonable",
    # trace + metrics
    "TraceRecorder",
    "SpanRecord",
    "MetricsRegistry",
    # runtime switch + facade
    "configure",
    "enabled",
    "session",
    "get_recorder",
    "get_metrics",
    "span",
    "add_span",
    "record_shard_spans",
    "observe_cascade",
    "observe_kernel",
    "observe_transfers",
    # exporters
    "to_perfetto",
    "write_trace",
    "validate_trace",
    "metrics_rows",
    "write_metrics",
    "render_rows",
    "render_trace",
]
