"""Exporters: Perfetto ``trace_event`` JSON, flat metrics JSON, ASCII.

Three ways out of the observability spine:

* :func:`to_perfetto` / :func:`write_trace` — the Chrome/Perfetto
  ``trace_event`` format (open ``chrome://tracing`` or
  https://ui.perfetto.dev and load the ``.trace.json``);
* :func:`metrics_rows` / :func:`write_metrics` — a flat JSON array of
  self-describing row objects, one per metric;
* :func:`render_rows` / :func:`render_trace` — the ASCII Gantt renderer
  behind :meth:`repro.pipeline.timeline.Timeline.render` and
  :meth:`repro.exec.metrics.MeasuredTimeline.render`, generalized to any
  labelled span rows.

:func:`validate_trace` is the exporter contract the tests and the
``repro trace`` CLI both enforce: parseable events, non-negative
monotonic timestamps, non-negative durations, resolvable parent links.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Sequence

from .metrics import MetricsRegistry
from .trace import SpanRecord, TraceRecorder

__all__ = [
    "to_perfetto",
    "write_trace",
    "validate_trace",
    "metrics_rows",
    "write_metrics",
    "render_rows",
    "render_trace",
]

#: canonical track order for ASCII rendering (unknown categories follow)
CATEGORY_ORDER = (
    "stream",
    "batch",
    "cascade",
    "transfer",
    "distribution",
    "engine",
    "kernel",
    "launch",
)


# -- Perfetto trace_event ----------------------------------------------------


def _event_tid(span: SpanRecord) -> int:
    shard = span.attrs.get("shard")
    if isinstance(shard, int) and shard >= 0:
        return shard + 1
    return 0


def to_perfetto(
    recorder: TraceRecorder, metrics: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Render the recorder as a Chrome/Perfetto ``trace_event`` object."""
    spans = sorted(recorder.spans, key=lambda s: (s.start, s.span_id))
    events: list[dict[str, Any]] = []
    for pid in sorted({s.pid for s in spans}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro trace {recorder.trace_id} pid {pid}"},
            }
        )
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                # trace_event timestamps are microseconds
                "ts": round(span.start * 1e6, 3),
                "dur": round(max(span.duration, 0.0) * 1e6, 3),
                "pid": span.pid,
                "tid": _event_tid(span),
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "kind": span.kind,
                    **{k: v for k, v in span.attrs.items() if k != "shard"},
                },
            }
        )
    out: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": recorder.trace_id,
            "schema_version": SpanRecord.schema_version,
        },
    }
    if metrics is not None:
        out["metrics"] = metrics.snapshot()
    return out


def write_trace(
    path: str | Path,
    recorder: TraceRecorder,
    metrics: MetricsRegistry | None = None,
) -> Path:
    """Write the Perfetto JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(to_perfetto(recorder, metrics), indent=2) + "\n")
    return path


def validate_trace(data: Any) -> list[str]:
    """Check a ``trace_event`` object; returns a list of problems (empty = ok).

    Enforced invariants: a ``traceEvents`` list of dict events; every
    duration event has a name, a category, a numeric non-negative ``ts``
    and ``dur``; ``ts`` values are monotonically non-decreasing in file
    order; ``args.parent_id`` references resolve to an exported span.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"trace must be a JSON object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["trace has no 'traceEvents' list"]

    span_ids: set[int] = set()
    duration_events = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"event {i}: unsupported phase {ph!r}")
            continue
        if ph == "M":
            continue
        duration_events.append((i, ev))
        if not ev.get("name"):
            problems.append(f"event {i}: missing name")
        if not ev.get("cat"):
            problems.append(f"event {i}: missing category")
        for field in ("ts", "dur"):
            value = ev.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"event {i}: {field}={value!r} must be >= 0")
        args = ev.get("args") or {}
        if isinstance(args.get("span_id"), int):
            span_ids.add(args["span_id"])

    last_ts = 0.0
    for i, ev in duration_events:
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            if ts < last_ts:
                problems.append(
                    f"event {i}: ts {ts} not monotonic (previous {last_ts})"
                )
            last_ts = max(last_ts, float(ts))
        args = ev.get("args") or {}
        parent = args.get("parent_id")
        if parent is not None and parent not in span_ids:
            problems.append(f"event {i}: parent_id {parent} unresolved")
    return problems


# -- flat metrics JSON -------------------------------------------------------


def metrics_rows(
    metrics: MetricsRegistry, **context: Any
) -> list[dict[str, Any]]:
    """One row object per metric.

    ``context`` keys (e.g. ``bench=``, ``n=``, ``trace_id=``) and the
    host's ``cpus`` repeat on every row so files stay self-describing.
    """
    base = {"cpus": os.cpu_count() or 1, **context}
    return [
        {"metric": name, "value": value, **base}
        for name, value in metrics.snapshot().items()
    ]


def write_metrics(
    path: str | Path, metrics: MetricsRegistry, **context: Any
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(metrics_rows(metrics, **context), indent=2) + "\n")
    return path


# -- ASCII timeline ----------------------------------------------------------


def render_rows(
    rows: Sequence[tuple[str, Sequence[tuple[float, float, str]]]],
    *,
    width: int = 72,
    makespan: float | None = None,
    label_width: int | None = None,
    empty_message: str = "(empty timeline)",
) -> str:
    """ASCII Gantt chart from ``(label, [(start, end, mark), ...])`` rows.

    The shared renderer behind every timeline in the repo: marks are
    scaled into ``width`` columns against the overall makespan, one text
    row per input row.
    """
    span = makespan
    if span is None:
        span = max(
            (end for _, marks in rows for _, end, _ in marks), default=0.0
        )
    if span <= 0:
        return empty_message
    if label_width is None:
        label_width = max((len(label) for label, _ in rows), default=0)
    lines = []
    for label, marks in rows:
        row = [" "] * width
        for start, end, mark in marks:
            lo = int(start / span * (width - 1))
            hi = max(lo + 1, int(end / span * (width - 1)))
            for i in range(lo, min(hi, width)):
                row[i] = mark
        lines.append(f"{label:>{label_width}} |{''.join(row)}|")
    return "\n".join(lines)


def _trace_mark(span: SpanRecord) -> str:
    shard = span.attrs.get("shard")
    if isinstance(shard, int) and shard >= 0:
        return str(shard % 10)
    return "="


def render_trace(recorder: TraceRecorder, *, width: int = 72) -> str:
    """One ASCII row per category, in taxonomy order (Fig. 5 style)."""
    categories = sorted(
        recorder.categories(),
        key=lambda c: (
            CATEGORY_ORDER.index(c) if c in CATEGORY_ORDER else len(CATEGORY_ORDER),
            c,
        ),
    )
    rows = [
        (
            cat,
            [
                (s.start, s.end, _trace_mark(s))
                for s in recorder.by_category(cat)
            ],
        )
        for cat in categories
    ]
    return render_rows(
        rows,
        width=width,
        makespan=recorder.makespan,
        empty_message="(empty trace)",
    )
