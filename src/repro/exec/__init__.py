"""Shard-execution engine: real wall-clock overlap of per-shard kernels."""

from .engine import (
    ExecutionEngine,
    PendingWave,
    SerialEngine,
    ShardKernelResult,
    ShardKernelTask,
    ThreadEngine,
    available_backends,
    create_engine,
    default_worker_count,
    run_kernel_task,
)
from .metrics import MeasuredTimeline, ShardSpan

__all__ = [
    "ExecutionEngine",
    "PendingWave",
    "SerialEngine",
    "ThreadEngine",
    "ShardKernelTask",
    "ShardKernelResult",
    "run_kernel_task",
    "available_backends",
    "create_engine",
    "MeasuredTimeline",
    "ShardSpan",
    "default_worker_count",
]
