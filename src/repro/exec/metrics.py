"""Measured wall-clock spans for the shard-execution engine.

The performance model (:mod:`repro.perfmodel`) produces *modelled*
seconds from counted work; the execution engine produces *measured*
seconds by actually running shard kernels concurrently and timing them.
This module holds the measured counterpart of
:class:`repro.pipeline.timeline.Timeline`: per-shard wall-clock spans
collected by the backends, composable into a node-level measured
timeline (``docs/execution.md`` explains when each is authoritative).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.protocol import reportable_dict

__all__ = ["ShardSpan", "MeasuredTimeline"]


@dataclass(frozen=True)
class ShardSpan:
    """One timed unit of work: a shard kernel or a whole batch cascade.

    ``shard`` is the shard/GPU index, or ``-1`` for spans covering the
    whole node (e.g. one batch cascade in the async driver).  Times are
    seconds relative to the enclosing timeline's epoch.  ``pid`` is the
    OS process that ran the work — the provenance
    :class:`repro.obs.TraceRecorder` keeps when it merges the spans.
    """

    shard: int
    op: str
    start: float
    end: float
    pid: int = 0

    schema_version = 1

    @property
    def duration(self) -> float:
        return self.end - self.start

    def shifted(self, offset: float) -> "ShardSpan":
        return ShardSpan(
            self.shard, self.op, self.start + offset, self.end + offset, self.pid
        )

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys)."""
        return reportable_dict(
            self,
            {
                "shard": self.shard,
                "op": self.op,
                "start": self.start,
                "end": self.end,
                "duration": self.duration,
                "pid": self.pid,
            },
        )


@dataclass
class MeasuredTimeline:
    """A collection of measured spans sharing one epoch (t = 0)."""

    spans: list[ShardSpan] = field(default_factory=list)

    def add(self, span: ShardSpan) -> None:
        self.spans.append(span)

    def extend(self, spans: list[ShardSpan], *, offset: float = 0.0) -> None:
        self.spans.extend(s.shifted(offset) if offset else s for s in spans)

    @property
    def makespan(self) -> float:
        """End of the last span (epoch-relative wall-clock seconds)."""
        return max((s.end for s in self.spans), default=0.0)

    @property
    def busy_seconds(self) -> float:
        """Sum of span durations — the serialized cost of the same work."""
        return sum(s.duration for s in self.spans)

    @property
    def overlap_speedup(self) -> float:
        """busy / makespan: 1.0 means fully serial, m means perfect overlap."""
        span = self.makespan
        return self.busy_seconds / span if span > 0 else 0.0

    def shard_spans(self, shard: int) -> list[ShardSpan]:
        return [s for s in self.spans if s.shard == shard]

    def render(self, *, width: int = 72) -> str:
        """ASCII Gantt chart, one row per shard (measured Fig. 5 analogue).

        Rendering goes through the shared :func:`repro.obs.render_rows`
        renderer, so measured, modelled, and traced timelines all draw
        identically.
        """
        from ..obs.export import render_rows

        shards = sorted({s.shard for s in self.spans})
        rows = []
        for shard in shards:
            mark = "=" if shard < 0 else str(shard % 10)
            rows.append(
                (
                    "node" if shard < 0 else f"gpu{shard}",
                    [
                        (s.start, s.end, mark)
                        for s in self.spans
                        if s.shard == shard
                    ],
                )
            )
        return render_rows(
            rows,
            width=width,
            makespan=self.makespan,
            label_width=6,
            empty_message="(empty measured timeline)",
        )
