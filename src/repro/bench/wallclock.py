"""Measured wall-clock benchmarks for the shard-execution engine.

Unlike the rest of :mod:`repro.bench` — which *models* P100 seconds
from counted work — this suite times the simulation itself with a
monotonic clock, comparing the ``serial``/``thread``/``process``
execution backends on identical workloads:

* ``single_shard_insert`` / ``single_shard_query`` — one bulk kernel on
  one shard (engine dispatch overhead + kernel time);
* ``cascade_insert`` — the full m = 4 device-sided insertion cascade,
  where the per-shard kernels are the parallelizable phase;
* ``growth_insert`` — the same cascade started at a quarter of the
  final capacity under a ``GrowthPolicy``, so the measured seconds
  include the coordinated shard growth + rehash episodes;
* ``pipeline_insert`` — the batched streaming ingest through
  :class:`~repro.pipeline.driver.AsyncCascadeDriver` at ``depth`` 1 /
  2 / 4 under modelled device pacing, where the recorded seconds are
  the driver's *measured* makespan — the ``depth >= 2`` rows beat
  ``depth=1`` exactly by the host-staging time the pipeline hides
  behind the paced kernel occupancy (``docs/streaming_pipeline.md``).

Results carry the host's CPU count: on a single-core box the parallel
backends cannot beat serial (see ``docs/execution.md``), and the
recorded ``cpus`` field keeps such numbers interpretable.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.config import HashTableConfig
from ..core.growth import GrowthPolicy
from ..core.kernels_jit import warm
from ..core.table import WarpDriveHashTable
from ..errors import ConfigurationError
from ..exec.engine import ShardKernelTask, available_backends, create_engine
from ..multigpu.distributed_table import DistributedHashTable
from ..multigpu.topology import p100_nvlink_node
from ..multigpu.topology import topology as build_topology
from ..obs.protocol import reportable_dict
from ..workloads import random_values, unique_keys

__all__ = [
    "WallClockRecord",
    "bench_single_shard",
    "bench_cascade",
    "bench_growth",
    "bench_pipeline_depth",
    "run_wallclock_suite",
    "write_results",
    "format_records",
]


@dataclass
class WallClockRecord:
    """One measured data point (the ``BENCH_wallclock.json`` row schema)."""

    bench: str
    n: int
    m: int
    engine: str
    ops_per_s: float
    seconds: float
    #: host cores the run had — parallel backends need > 1 to win
    cpus: int = 0
    #: kernel backend that actually ran (post-fallback): "fast" | "ref"
    #: | "compiled" — compiled-vs-fast runs must stay distinguishable
    kernels: str = "fast"
    #: in-flight batch depth of the streaming pipeline (1 everywhere
    #: except the ``pipeline_insert`` sweep rows)
    depth: int = 1
    #: slot storage policy the timed tables ran ("aos" | "soa" |
    #: "compact") — compact-vs-aos rows must stay distinguishable just
    #: like compiled-vs-fast ones
    layout: str = "aos"

    schema_version = 3

    def __post_init__(self):
        if not self.cpus:
            self.cpus = os.cpu_count() or 1

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys)."""
        return reportable_dict(
            self,
            {
                "bench": self.bench,
                "n": self.n,
                "m": self.m,
                "engine": self.engine,
                "ops_per_s": self.ops_per_s,
                "seconds": self.seconds,
                "cpus": self.cpus,
                "kernels": self.kernels,
                "depth": self.depth,
                "layout": self.layout,
            },
        )


def bench_single_shard(
    engine: str,
    n: int,
    *,
    group_size: int = 4,
    load_factor: float = 0.95,
    workers: int | None = None,
    seed: int = 11,
    kernels: str = "fast",
    layout: str = "aos",
) -> list[WallClockRecord]:
    """Time one bulk insert + query kernel dispatched through the engine.

    ``kernels="ref"`` times the faithful generator kernels through the
    table API instead of the engine (the ref path is a per-operation
    verification schedule, not an engine-dispatchable bulk kernel) —
    expect it to be orders of magnitude slower; use a small ``n``.
    """
    if kernels not in ("fast", "ref", "compiled"):
        raise ConfigurationError(
            f"kernels must be 'fast', 'ref', or 'compiled', got {kernels!r}"
        )
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    config = HashTableConfig.for_load_factor(
        n, load_factor, group_size=group_size, layout=layout
    )
    records = []
    if kernels == "ref":
        table = WarpDriveHashTable(config=config)
        try:
            for op in ("insert", "query"):
                t0 = time.perf_counter()
                if op == "insert":
                    table.insert(keys, values, kernels="ref")
                else:
                    table.query(keys, kernels="ref")
                seconds = time.perf_counter() - t0
                records.append(
                    WallClockRecord(
                        bench=f"single_shard_{op}",
                        n=n,
                        m=1,
                        engine=engine,
                        ops_per_s=n / seconds if seconds > 0 else 0.0,
                        seconds=seconds,
                        kernels="ref",
                        layout=layout,
                    )
                )
        finally:
            table.free()
        return records
    with create_engine(engine, workers=workers) as eng:
        table = WarpDriveHashTable(
            config=config, shared=eng.requires_shared_slots
        )
        try:
            if kernels == "compiled":
                # load the kernel library off the clock; process workers
                # load it on their first task, which then *is* on the
                # clock — cold-start rows say so via the engine column
                warm()
            for op, payload in (("insert", values), ("query", None)):
                task = ShardKernelTask(
                    shard=0,
                    op=op,
                    slots=table.slots,
                    seq=table.seq,
                    keys=keys,
                    values=payload,
                    shm=table.shm_descriptor(),
                    kernels=kernels,
                )
                t0 = time.perf_counter()
                res = eng.run([task])[0]
                seconds = time.perf_counter() - t0
                if op == "insert":
                    table.absorb_insert(keys, values, res.report, res.status)
                else:
                    table.absorb_query(res.report)
                records.append(
                    WallClockRecord(
                        bench=f"single_shard_{op}",
                        n=n,
                        m=1,
                        engine=engine,
                        ops_per_s=n / seconds if seconds > 0 else 0.0,
                        seconds=seconds,
                        kernels=res.kernels,
                        layout=layout,
                    )
                )
        finally:
            table.free()
    return records



def _bench_topology(m, topology):
    """Resolve a bench's topology from ``m`` or a ``topology=`` spec.

    The two are mutually exclusive — the spec already fixes the GPU
    count (see :mod:`repro.options`).  Specs are re-resolved per call so
    every bench run starts on fresh simulated devices.
    """
    if topology is not None:
        if m is not None:
            raise ConfigurationError(
                "got both m= and topology=; the topology spec already "
                "fixes the GPU count (see repro.options)"
            )
        return build_topology(topology)
    return p100_nvlink_node(4 if m is None else m)


def bench_cascade(
    engine: str,
    n: int,
    *,
    m: int | None = None,
    topology=None,
    group_size: int = 4,
    load_factor: float = 0.95,
    workers: int | None = None,
    seed: int = 11,
    kernels: str = "fast",
    layout: str = "aos",
) -> list[WallClockRecord]:
    """Time the full device-sided distributed insertion cascade."""
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    topology = _bench_topology(m, topology)
    m = topology.num_devices
    table = DistributedHashTable.for_workload(
        topology,
        keys,
        load_factor,
        group_size=group_size,
        engine=engine,
        workers=workers,
        kernels=kernels,
        layout=layout,
    )
    try:
        if kernels == "compiled":
            warm()
        t0 = time.perf_counter()
        report = table.insert(keys, values, source="device")
        seconds = time.perf_counter() - t0
    finally:
        table.free()
    return [
        WallClockRecord(
            bench="cascade_insert",
            n=n,
            m=m,
            engine=engine,
            ops_per_s=n / seconds if seconds > 0 else 0.0,
            seconds=seconds,
            kernels=report.kernels,
            layout=layout,
        )
    ]


def bench_growth(
    engine: str,
    n: int,
    *,
    m: int | None = None,
    topology=None,
    group_size: int = 4,
    max_load: float = 0.9,
    chunks: int = 8,
    workers: int | None = None,
    seed: int = 11,
    kernels: str = "fast",
    layout: str = "aos",
) -> list[WallClockRecord]:
    """Time a chunked cascade ingest that starts at a quarter of the
    final capacity, so the clock includes every coordinated shard-growth
    and rehash episode the :class:`~repro.core.growth.GrowthPolicy`
    triggers on the way up."""
    import numpy as np

    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    topology = _bench_topology(m, topology)
    m = topology.num_devices
    start_capacity = max(m * 64, n // 4)
    table = DistributedHashTable(
        start_capacity,
        topology=topology,
        group_size=group_size,
        engine=engine,
        workers=workers,
        growth=GrowthPolicy(max_load=max_load),
        kernels=kernels,
        layout=layout,
    )
    try:
        if kernels == "compiled":
            warm()
        batches = list(
            zip(np.array_split(keys, chunks), np.array_split(values, chunks))
        )
        t0 = time.perf_counter()
        report = None
        for chunk_keys, chunk_values in batches:
            report = table.insert(chunk_keys, chunk_values, source="device")
        seconds = time.perf_counter() - t0
        if not any(shard.grows for shard in table.shards):
            raise RuntimeError("growth bench never grew — workload too small")
    finally:
        table.free()
    return [
        WallClockRecord(
            bench="growth_insert",
            n=n,
            m=m,
            engine=engine,
            ops_per_s=n / seconds if seconds > 0 else 0.0,
            seconds=seconds,
            kernels=report.kernels if report is not None else kernels,
            layout=layout,
        )
    ]


def bench_pipeline_depth(
    n: int,
    *,
    m: int | None = None,
    topology=None,
    depths: tuple[int, ...] = (1, 2, 4),
    num_batches: int = 8,
    scale: float = 500.0,
    group_size: int = 4,
    seed: int = 11,
) -> list[WallClockRecord]:
    """Sweep the streaming pipeline's in-flight ``depth`` on one stream.

    Every depth ingests the same ``num_batches``-way batched keyspace
    through :class:`~repro.pipeline.driver.AsyncCascadeDriver` with
    ``pace="modelled"`` and ``measure=True``; the recorded seconds are
    the driver's measured makespan, so the ``depth >= 2`` rows isolate
    the real overlap win (host staging hidden behind the paced modelled
    kernel occupancy) rather than any modelled number.  ``scale``
    stretches the modelled occupancy so it stays comparable to the host
    staging time at bench sizes — the same factor at every depth, so
    the depth-1 row pays exactly the same paced seconds.
    """
    import numpy as np

    from ..pipeline.driver import AsyncCascadeDriver

    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    batches = list(
        zip(np.array_split(keys, num_batches), np.array_split(values, num_batches))
    )
    records = []
    for depth in depths:
        topo = _bench_topology(m, topology)
        table = DistributedHashTable(
            n * 2, topology=topo, group_size=group_size
        )
        try:
            driver = AsyncCascadeDriver(
                table, depth=depth, pace="modelled", measure=True, scale=scale
            )
            res = driver.insert_stream(iter(batches))
        finally:
            table.free()
        seconds = res.measured_makespan or 0.0
        records.append(
            WallClockRecord(
                bench="pipeline_insert",
                n=n,
                m=topo.num_devices,
                engine="serial",
                ops_per_s=n / seconds if seconds > 0 else 0.0,
                seconds=seconds,
                depth=depth,
            )
        )
    return records


def run_wallclock_suite(
    n: int = 1 << 18,
    *,
    m: int | None = None,
    topology=None,
    engines: tuple[str, ...] | None = None,
    workers: int | None = None,
    seed: int = 11,
    kernels: str = "fast",
    layout: str = "aos",
) -> list[WallClockRecord]:
    """All benches × all backends on the same keys (same seed).

    ``kernels="ref"`` runs only the single-shard benches — the ref
    kernels are a per-operation verification schedule and have no
    cascade-level dispatch.
    """
    records: list[WallClockRecord] = []
    for engine in engines or available_backends():
        records.extend(
            bench_single_shard(
                engine, n, workers=workers, seed=seed, kernels=kernels,
                layout=layout,
            )
        )
        if kernels == "ref":
            continue
        records.extend(
            bench_cascade(
                engine, n, m=m, topology=topology, workers=workers,
                seed=seed, kernels=kernels, layout=layout,
            )
        )
        records.extend(
            bench_growth(
                engine, n, m=m, topology=topology, workers=workers,
                seed=seed, kernels=kernels, layout=layout,
            )
        )
    return records


def write_results(records: list[WallClockRecord], path: str | Path) -> Path:
    """Persist records as a JSON array of row objects."""
    path = Path(path)
    path.write_text(json.dumps([r.to_dict() for r in records], indent=2) + "\n")
    return path


def format_records(records: list[WallClockRecord]) -> str:
    """Fixed-width table, one row per record, with vs-baseline speedups.

    The baseline is the serial row of the same bench/kernels — and for
    the ``pipeline_insert`` sweep, its ``depth=1`` row, so the speedup
    column reads off the measured overlap win directly.
    """
    serial = {
        (r.bench, r.n, r.m, r.kernels, r.depth, r.layout): r.seconds
        for r in records
        if r.engine == "serial"
    }
    lines = [
        f"{'bench':<20} {'n':>9} {'m':>2} {'d':>2} {'engine':<9} "
        f"{'kernels':<9} {'layout':<8} {'seconds':>9} {'Mops/s':>8} "
        f"{'vs serial':>9}"
    ]
    for r in records:
        base_depth = 1 if r.bench == "pipeline_insert" else r.depth
        base = serial.get(
            (r.bench, r.n, r.m, r.kernels, base_depth, r.layout)
        )
        speedup = f"{base / r.seconds:>8.2f}x" if base and r.seconds else f"{'-':>9}"
        lines.append(
            f"{r.bench:<20} {r.n:>9} {r.m:>2} {r.depth:>2} {r.engine:<9} "
            f"{r.kernels:<9} {r.layout:<8} {r.seconds:>9.4f} "
            f"{r.ops_per_s / 1e6:>8.2f} {speedup}"
        )
    if records:
        lines.append(f"(host cpus: {records[0].cpus})")
    return "\n".join(lines)
