"""Pluggable shard-execution engine (backend protocol + registry).

The paper's central wall-clock claim is that the ``m`` GPUs of a node
work *concurrently*: after the all-to-all transpose every shard owns
exactly its own keys, so the per-shard insert/query/erase kernels are
embarrassingly parallel (§IV-B, Fig. 9/11).  This module makes that
concurrency real instead of merely modelled: a
:class:`ShardKernelTask` describes one shard's bulk kernel, and an
:class:`ExecutionEngine` backend runs a batch of them —

``serial``
    in submission order on the calling thread (the reference schedule);
``thread``
    on a thread pool — the compiled kernels and large NumPy array ops
    release the GIL, so shards genuinely overlap on multi-core hosts.

Both run in the one host process that drives the node, as the paper's
driver does.  Every backend is **deterministic**: shards are disjoint
address spaces, per-shard kernels are pure functions of (slots, seq,
keys, values), and results return in task order — so final tables are
bit-identical and merged :class:`~repro.core.report.KernelReport`
counters are equal across backends (property-tested in ``tests/exec``).
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.bulk import bulk_erase, bulk_insert, bulk_query
from ..core.kernels_jit import (
    bulk_erase_compiled,
    bulk_insert_compiled,
    bulk_query_compiled,
    resolve_kernels,
)
from ..core.probing import WindowSequence
from ..core.report import KernelReport
from ..errors import ConfigurationError
from ..obs import runtime as obs
from .metrics import ShardSpan

__all__ = [
    "ShardKernelTask",
    "ShardKernelResult",
    "PendingWave",
    "ExecutionEngine",
    "SerialEngine",
    "ThreadEngine",
    "available_backends",
    "create_engine",
    "default_worker_count",
]


def default_worker_count() -> int:
    """One worker per core, capped — sized for per-shard kernel tasks."""
    return max(1, min(16, os.cpu_count() or 1))


@dataclass
class ShardKernelTask:
    """One shard's bulk kernel: op + operands + a handle to its table."""

    shard: int
    op: str  # "insert" | "query" | "erase"
    slots: np.ndarray
    seq: WindowSequence
    keys: np.ndarray
    values: np.ndarray | None = None
    default: int = 0
    #: kernel backend: "fast" or "compiled" (resolved when the task runs)
    kernels: str = "fast"


@dataclass
class ShardKernelResult:
    """Outcome of one shard kernel; payload fields depend on ``op``."""

    shard: int
    op: str
    report: KernelReport
    status: np.ndarray | None = None  # insert
    values: np.ndarray | None = None  # query
    found: np.ndarray | None = None  # query
    erased: np.ndarray | None = None  # erase
    span: ShardSpan | None = None
    #: kernel backend that actually ran (post-fallback), for reporting
    kernels: str = "fast"


def run_kernel_task(task: ShardKernelTask) -> ShardKernelResult:
    """Execute one task against its slots (no counter: the caller merges).

    Work accounting stays in the returned report so counter merging
    happens on the calling thread in deterministic shard order,
    identically for every backend.
    """
    # resolving loads the library, so its build time lands in a
    # jit_compile span before the measured one starts; the result
    # records the backend that actually ran
    slots = task.slots
    kernels = resolve_kernels(task.kernels, slots=slots, owner="run_kernel_task")
    compiled = kernels == "compiled"
    t0 = time.perf_counter()
    if task.op == "insert":
        op = bulk_insert_compiled if compiled else bulk_insert
        report, status = op(slots, task.seq, task.keys, task.values, None)
        result = ShardKernelResult(task.shard, task.op, report, status=status)
    elif task.op == "query":
        op = bulk_query_compiled if compiled else bulk_query
        report, values, found = op(
            slots, task.seq, task.keys, None, default=task.default
        )
        result = ShardKernelResult(
            task.shard, task.op, report, values=values, found=found
        )
    elif task.op == "erase":
        op = bulk_erase_compiled if compiled else bulk_erase
        report, erased = op(slots, task.seq, task.keys, None)
        result = ShardKernelResult(task.shard, task.op, report, erased=erased)
    else:
        raise ConfigurationError(f"unknown kernel op {task.op!r}")
    t1 = time.perf_counter()
    result.span = ShardSpan(task.shard, task.op, t0, t1, pid=os.getpid())
    result.kernels = kernels
    return result


def _normalize_spans(results: list[ShardKernelResult]) -> None:
    """Rebase all spans so the earliest task start is t = 0."""
    starts = [r.span.start for r in results if r.span is not None]
    if not starts:
        return
    epoch = min(starts)
    for r in results:
        if r.span is not None:
            r.span = r.span.shifted(-epoch)


class PendingWave:
    """Handle for an in-flight kernel wave (the non-blocking submit path).

    ``result()`` blocks until the wave completes and returns the results
    in task order — exactly what :meth:`ExecutionEngine.run` would have
    returned, including the traced dispatch span when :mod:`repro.obs`
    is enabled.  ``done()`` polls without blocking.  A backend without
    genuine asynchrony (serial) returns already-completed waves;
    the thread backend dispatches futures and defers collection, so a
    pipeline committer can overlap host work with the running kernels.
    """

    def __init__(self, results=None, *, poll=None, collect=None):
        if results is None and collect is None:
            raise ConfigurationError(
                "PendingWave needs either results or a collect callback"
            )
        self._results = results
        self._poll = poll
        self._collect = collect

    def done(self) -> bool:
        """True when ``result()`` would not block."""
        if self._results is not None:
            return True
        return self._poll() if self._poll is not None else True

    def result(self) -> list[ShardKernelResult]:
        """Wait for completion; results in task order (idempotent)."""
        if self._results is None:
            self._results = self._collect()
            self._collect = None
        return self._results


class ExecutionEngine(ABC):
    """A strategy for running a batch of independent shard kernels."""

    name: str = "abstract"

    def run(self, tasks: list[ShardKernelTask]) -> list[ShardKernelResult]:
        """Execute all tasks; results in task order, spans rebased to 0.

        When :mod:`repro.obs` is enabled the dispatch is traced: one
        ``engine`` span for the batch, plus the per-shard measured spans
        returned by the backend merged as its children.
        """
        if not obs.enabled():
            return self._run(tasks)
        # the backend rides in attrs, not the name: span trees stay
        # identical across serial/thread (tested in tests/obs)
        with obs.span(
            "dispatch", "engine", backend=self.name, tasks=len(tasks)
        ) as sp:
            results = self._run(tasks)
        if sp is not None:
            obs.record_shard_spans(
                (r.span for r in results if r.span is not None),
                offset=sp.start,
                parent_id=sp.span_id,
            )
        return results

    def submit(self, tasks: list[ShardKernelTask]) -> PendingWave:
        """Dispatch a wave without waiting for it (default: eager).

        The base implementation runs synchronously and hands back a
        completed :class:`PendingWave`, so every backend supports the
        submit/poll protocol; backends with real asynchrony (thread)
        override this to defer collection until ``result()``.  Span
        trees stay backend-identical because the dispatch span is
        recorded with the same name/category/attrs either way, parented
        to whatever span is current when the wave is *collected*.
        """
        return PendingWave(self.run(tasks))

    @abstractmethod
    def _run(self, tasks: list[ShardKernelTask]) -> list[ShardKernelResult]:
        """Backend hook: execute all tasks, results in task order."""

    def close(self) -> None:
        """Release backend resources (worker threads)."""

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialEngine(ExecutionEngine):
    """Reference backend: shard kernels in submission order, one thread."""

    name = "serial"

    def _run(self, tasks: list[ShardKernelTask]) -> list[ShardKernelResult]:
        results = [run_kernel_task(task) for task in tasks]
        _normalize_spans(results)
        return results


class ThreadEngine(ExecutionEngine):
    """Thread-pool backend; NumPy's GIL releases let shards overlap."""

    name = "thread"

    def __init__(self, workers: int | None = None):
        self.workers = int(workers) if workers else default_worker_count()
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
        return self._pool

    def _run(self, tasks: list[ShardKernelTask]) -> list[ShardKernelResult]:
        pool = self._ensure_pool()
        futures = [pool.submit(run_kernel_task, t) for t in tasks]
        results = [f.result() for f in futures]
        _normalize_spans(results)
        return results

    def submit(self, tasks: list[ShardKernelTask]) -> PendingWave:
        """Genuinely asynchronous dispatch: futures fly immediately,
        collection (and the traced dispatch span) waits for ``result()``."""
        if not tasks:
            return PendingWave([])
        pool = self._ensure_pool()
        traced = obs.enabled()
        t0 = obs.get_recorder().now() if traced else 0.0
        futures = [pool.submit(run_kernel_task, t) for t in tasks]

        def _collect() -> list[ShardKernelResult]:
            results = [f.result() for f in futures]
            _normalize_spans(results)
            if traced and obs.enabled():
                sp = obs.add_span(
                    "dispatch",
                    "engine",
                    t0,
                    obs.get_recorder().now(),
                    attrs={"backend": self.name, "tasks": len(tasks)},
                )
                if sp is not None:
                    obs.record_shard_spans(
                        (r.span for r in results if r.span is not None),
                        offset=t0,
                        parent_id=sp.span_id,
                    )
            return results

        return PendingWave(
            poll=lambda: all(f.done() for f in futures), collect=_collect
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


BACKENDS: dict[str, type[ExecutionEngine]] = {
    "serial": SerialEngine,
    "thread": ThreadEngine,
}


def available_backends() -> tuple[str, ...]:
    return tuple(BACKENDS)


def create_engine(
    engine: str | ExecutionEngine = "serial", workers: int | None = None
) -> ExecutionEngine:
    """Resolve an engine spec (name or ready-made engine instance)."""
    if isinstance(engine, ExecutionEngine):
        return engine
    try:
        backend = BACKENDS[engine]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {sorted(BACKENDS)}"
        ) from None
    if backend is SerialEngine:
        return backend()
    return backend(workers=workers)
