"""Hierarchical trace recording: the spine every layer emits into.

A :class:`TraceRecorder` collects :class:`SpanRecord`\\ s — named,
categorized intervals with ``trace_id``/``span_id``/``parent_id``
lineage — from every instrumented layer: cascade phases in
:mod:`repro.multigpu`, engine dispatch in :mod:`repro.exec`, batch
streams in :mod:`repro.pipeline`, and reference-kernel launches in
:mod:`repro.simt`.  Spans carry a ``kind`` distinguishing *measured*
wall-clock seconds from *modelled* perf-model seconds, so both can live
on one timeline (the paper's Fig. 5/11 overlap claims are exactly such
mixed timelines).

The recorder is thread-safe: the ``thread`` engine times shards
concurrently, and their :class:`~repro.exec.metrics.ShardSpan`
measurements come back inside
:class:`~repro.exec.engine.ShardKernelResult` and are merged on the
dispatching thread via :meth:`TraceRecorder.record_shard_spans`.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .protocol import reportable_dict

__all__ = ["SpanRecord", "TraceRecorder"]

#: span kinds: real seconds from a monotonic clock vs perf-model output
MEASURED = "measured"
MODELLED = "modelled"


@dataclass
class SpanRecord:
    """One interval on the trace: a phase, kernel, transfer, or batch."""

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    category: str
    #: seconds relative to the recorder's epoch (t = 0 at recorder birth)
    start: float
    end: float
    kind: str = MEASURED
    pid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    schema_version = 1

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return reportable_dict(
            self,
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "category": self.category,
                "start": self.start,
                "end": self.end,
                "kind": self.kind,
                "pid": self.pid,
                "attrs": self.attrs,
            },
        )


class TraceRecorder:
    """Collects spans for one trace; all layers share one instance.

    Spans record seconds relative to the recorder's construction time
    (monotonic clock), so exported timestamps are non-negative and
    directly comparable across layers.
    """

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.spans: list[SpanRecord] = []
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    # -- clock / ids --------------------------------------------------------

    def now(self) -> float:
        """Seconds since the recorder's epoch."""
        return time.perf_counter() - self._epoch

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _parent_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current_span_id(self) -> int | None:
        stack = self._parent_stack()
        return stack[-1] if stack else None

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "phase",
        *,
        kind: str = MEASURED,
        **attrs: Any,
    ) -> Iterator[SpanRecord]:
        """Time a block as one span, nested under the active span.

        The yielded record is live: its ``span_id`` can parent manual
        child spans and its ``attrs`` may be updated inside the block;
        ``end`` is stamped when the block exits.
        """
        record = SpanRecord(
            trace_id=self.trace_id,
            span_id=self._allocate_id(),
            parent_id=self.current_span_id,
            name=name,
            category=category,
            start=self.now(),
            end=0.0,
            kind=kind,
            pid=os.getpid(),
            attrs=dict(attrs),
        )
        stack = self._parent_stack()
        stack.append(record.span_id)
        try:
            yield record
        finally:
            stack.pop()
            record.end = self.now()
            with self._lock:
                self.spans.append(record)

    def add_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        *,
        parent_id: int | None = None,
        kind: str = MEASURED,
        pid: int | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> SpanRecord:
        """Record an externally timed interval (epoch-relative seconds)."""
        record = SpanRecord(
            trace_id=self.trace_id,
            span_id=self._allocate_id(),
            parent_id=(
                parent_id if parent_id is not None else self.current_span_id
            ),
            name=name,
            category=category,
            start=start,
            end=end,
            kind=kind,
            pid=os.getpid() if pid is None else pid,
            attrs=dict(attrs or {}),
        )
        with self._lock:
            self.spans.append(record)
        return record

    def record_shard_spans(
        self,
        shard_spans: Iterable,
        *,
        offset: float = 0.0,
        parent_id: int | None = None,
        category: str = "kernel",
        kind: str = MEASURED,
    ) -> list[SpanRecord]:
        """Merge measured :class:`~repro.exec.metrics.ShardSpan`\\ s.

        Backends return 0-based spans inside their results, and the
        dispatcher rebases them by ``offset`` (the phase start in
        recorder time) here.  A span's ``pid`` is preserved when it
        carries one.
        """
        out = []
        for s in shard_spans:
            out.append(
                self.add_span(
                    f"{s.op} shard {s.shard}" if s.shard >= 0 else s.op,
                    category,
                    offset + s.start,
                    offset + s.end,
                    parent_id=parent_id,
                    kind=kind,
                    pid=getattr(s, "pid", 0) or None,
                    attrs={"shard": s.shard, "op": s.op},
                )
            )
        return out

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def makespan(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    def by_category(self, category: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.category == category]

    def categories(self) -> set[str]:
        return {s.category for s in self.spans}

    def children(self, span_id: int | None) -> list[SpanRecord]:
        return sorted(
            (s for s in self.spans if s.parent_id == span_id),
            key=lambda s: (s.start, s.span_id),
        )

    def tree(self) -> list:
        """Canonical nested ``(name, category, kind, children)`` forest.

        Timing- and id-free, so two recorders of the same run shape
        compare equal regardless of backend.
        """

        def build(parent: int | None) -> list:
            nodes = [
                (s.name, s.category, s.kind, build(s.span_id))
                for s in self.children(parent)
            ]
            return sorted(nodes, key=lambda n: (n[0], n[1]))

        return build(None)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SpanRecord.schema_version,
            "trace_id": self.trace_id,
            "spans": [s.to_dict() for s in sorted(
                self.spans, key=lambda s: (s.start, s.span_id)
            )],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder(trace_id={self.trace_id!r}, "
            f"spans={len(self.spans)})"
        )
