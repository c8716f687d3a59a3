"""Named counters and gauges fed by the library's report streams.

A :class:`MetricsRegistry` rolls the per-operation report objects —
:class:`~repro.core.report.KernelReport` probing/CAS work,
:class:`~repro.multigpu.distributed_table.CascadeReport` traffic,
:class:`~repro.memory.transfer.TransferRecord` byte streams — into a
flat name → value map, the numeric complement of the span timeline in
:mod:`repro.obs.trace`.  Counters accumulate monotonically (bytes,
retries, probe windows); gauges hold last-observed values (queue depth,
load imbalance).  ``snapshot()`` is the flat JSON the exporters write.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from .protocol import reportable_dict, to_jsonable

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Thread-safe registry of named counters and gauges."""

    schema_version = 1

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._lock = threading.Lock()

    # -- primitives ----------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def gauge(self, name: str) -> float:
        return self.gauges.get(name, 0)

    # -- report-stream observers --------------------------------------------

    def observe_kernel(self, report) -> None:
        """Fold one :class:`KernelReport` into the kernel counters."""
        op = report.op
        self.inc(f"kernel.{op}.ops", report.num_ops)
        self.inc(f"kernel.{op}.probe_windows", report.total_windows)
        self.inc(f"kernel.{op}.load_sectors", report.load_sectors)
        self.inc(f"kernel.{op}.store_sectors", report.store_sectors)
        self.inc(f"kernel.{op}.cas_attempts", report.cas_attempts)
        self.inc(f"kernel.{op}.cas_successes", report.cas_successes)
        self.inc(
            f"kernel.{op}.cas_retries",
            max(report.cas_attempts - report.cas_successes, 0),
        )
        self.inc(f"kernel.{op}.warp_collectives", report.warp_collectives)
        self.inc(f"kernel.{op}.failed", report.failed)
        if report.num_ops:
            self.set_gauge(f"kernel.{op}.mean_windows", report.mean_windows)

    def observe_cascade(self, report) -> None:
        """Fold one :class:`CascadeReport` into the cascade counters."""
        op = report.op
        self.inc(f"cascade.{op}.count")
        self.inc(f"cascade.{op}.ops", report.num_ops)
        self.inc(f"cascade.{op}.h2d_bytes", report.h2d_bytes)
        self.inc(f"cascade.{op}.d2h_bytes", report.d2h_bytes)
        self.inc(f"cascade.{op}.alltoall_bytes", report.alltoall_bytes)
        self.inc(f"cascade.{op}.reverse_bytes", report.reverse_bytes)
        self.inc(
            f"cascade.{op}.distribution_wall_seconds",
            report.distribution_wall_seconds,
        )
        self.inc(f"cascade.{op}.kernel_wall_seconds", report.kernel_wall_seconds)
        self.set_gauge(f"cascade.{op}.load_imbalance", report.load_imbalance)
        cache_hits = getattr(report, "cache_hits", 0)
        cache_misses = getattr(report, "cache_misses", 0)
        if cache_hits or cache_misses:
            self.inc(f"cascade.{op}.cache_hits", cache_hits)
            self.inc(f"cascade.{op}.cache_misses", cache_misses)
        for rep in report.kernel_reports:
            self.observe_kernel(rep)
        for rep in report.multisplit_reports:
            self.observe_kernel(rep)
        grow_reports = getattr(report, "grow_reports", [])
        if grow_reports:
            self.inc(f"cascade.{op}.grows", len(grow_reports))
            self.inc(
                f"cascade.{op}.grow_wall_seconds",
                getattr(report, "grow_wall_seconds", 0.0),
            )
            for rep in grow_reports:
                self.observe_kernel(rep)

    def observe_transfers(self, records: Iterable) -> None:
        """Fold :class:`TransferRecord` streams into per-link byte counters."""
        for rec in records:
            kind = getattr(rec.kind, "name", str(rec.kind)).lower()
            self.inc(f"transfer.{kind}.bytes", rec.nbytes)
            self.inc(f"transfer.{kind}.count")
            if rec.src_device is not None and rec.dst_device is not None:
                self.inc(
                    f"transfer.link.{rec.src_device}_to_{rec.dst_device}.bytes",
                    rec.nbytes,
                )

    def observe_queue_depth(self, name: str, depth: int) -> None:
        """Track a queue's instantaneous depth and its high-water mark."""
        self.set_gauge(f"queue.{name}.depth", depth)
        with self._lock:
            key = f"queue.{name}.peak_depth"
            self.gauges[key] = max(self.gauges.get(key, 0), depth)

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Flat, sorted, JSON-ready name → value map."""
        with self._lock:
            merged = {f"counter.{k}": v for k, v in self.counters.items()}
            merged.update({f"gauge.{k}": v for k, v in self.gauges.items()})
        return {k: to_jsonable(v) for k, v in sorted(merged.items())}

    def to_dict(self) -> dict[str, Any]:
        return reportable_dict(self, {"metrics": self.snapshot()})

    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)})"
        )
