"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info
    Library, model-calibration, and simulated-hardware summary.
demo
    A 30-second single-GPU + multi-GPU functional demo.
rates
    Modelled single-GPU insert/retrieve rates for chosen loads and |g|.
figures
    Regenerate paper figures (delegates to the experiment harness).
bench
    Measured wall-clock suites: shard-execution backends and the
    fused-vs-reference distribution path.
trace
    Run a small traced cascade and write a Chrome/Perfetto
    ``.trace.json`` through :mod:`repro.obs`.
grow
    Dynamic-growth exercise: ingest past the load ceiling through every
    table flavour and validate the traced grow/rehash spans
    (``--smoke`` is the CI gate).
stream
    Streaming-pipeline exercise: depth bit-identity, staging-budget
    backpressure, and measured distribution/kernel overlap under
    modelled pacing, with Perfetto validation (``--smoke`` is the CI
    gate).
cluster
    Hierarchical-topology exercise: one-node-cluster bit-identity
    against the flat node, NIC byte charging on a two-node cluster, and
    the traced ``transpose.intra``/``transpose.inter`` exchange levels
    (``--smoke`` is the CI gate).
compact
    Compact slot layout exercise: cross-layout bit-identity under
    growth/tombstone churn plus strictly narrower modelled VRAM and
    exchange charges on quotienting tables (``--smoke`` is the CI
    gate).
racecheck
    Shadow-memory race sanitizer over the reference kernels: clean-tree
    certification plus the seeded mutant catalogue.
fuzz
    Differential fuzzing of the fast paths against the reference
    semantics, with fault injection, shrinking, and seed replay.
"""

from __future__ import annotations

import argparse
import sys


__all__ = ["main", "build_parser"]


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.perfmodel import P100, calibration as cal
    from repro.utils.tables import format_kv

    print(f"repro {repro.__version__} — WarpDrive reproduction (IPDPS 2018)")
    print()
    print(
        format_kv(
            {
                "simulated GPU": P100.name,
                "VRAM": f"{P100.vram_gib:.0f} GiB",
                "peak bandwidth": f"{P100.mem_bandwidth / 1e9:.0f} GB/s",
                "random-access efficiency": cal.RANDOM_ACCESS_EFFICIENCY,
                "atomic CAS rate": f"{cal.ATOMIC_CAS_RATE / 1e9:.1f} G/s",
                "CAS degradation knee": f"{cal.CAS_DEGRADE_KNEE_BYTES >> 30} GiB",
                "NVLink efficiency": cal.NVLINK_EFFICIENCY,
                "PCIe efficiency": cal.PCIE_EFFICIENCY,
            },
            title="calibration (repro/perfmodel/calibration.py)",
        )
    )
    print()
    print("subsystems: core simt memory hashing primitives multigpu "
          "pipeline baselines perfmodel workloads bench")
    return 0



def _resolve_topology_arg(args: argparse.Namespace, *, default_m: int = 4):
    """Build a command's topology from ``--topology`` / ``--m``.

    The two are mutually exclusive — a spec like ``cluster:2x4`` already
    fixes the GPU count.  Re-resolves the spec on every call so each run
    starts on fresh simulated devices.
    """
    from repro.errors import ConfigurationError
    from repro.multigpu import p100_nvlink_node
    from repro.multigpu import topology as build_topology

    spec = getattr(args, "topology", None)
    m = getattr(args, "m", None)
    if spec is not None:
        if m is not None:
            raise ConfigurationError(
                "got both --topology and --m; the topology spec already "
                "fixes the GPU count (see repro.options)"
            )
        return build_topology(spec)
    return p100_nvlink_node(default_m if m is None else m)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import WarpDriveHashTable
    from repro.multigpu import DistributedHashTable
    from repro.perfmodel import kernel_seconds, P100, throughput, time_cascade
    from repro.workloads import random_values, unique_keys

    n = args.n
    keys = unique_keys(n, seed=1)
    values = random_values(n, seed=2)

    table = WarpDriveHashTable.for_load_factor(n, 0.95, group_size=4)
    rep = table.insert(keys, values)
    got, found = table.query(keys)
    assert bool(found.all()) and bool((got == values).all())
    secs = kernel_seconds(rep, P100, table_bytes=table.table_bytes)
    print(
        f"single GPU : {n} pairs at load {table.load_factor:.2f}, "
        f"mean probe windows {rep.mean_windows:.2f}, "
        f"modelled {throughput(n, secs) / 1e9:.2f} G inserts/s"
    )

    node = _resolve_topology_arg(args)
    dist = DistributedHashTable.for_workload(
        node, keys, 0.95, group_size=4,
        engine=args.engine, workers=args.workers,
    )
    drep = dist.insert(keys, values, source="host")
    timing = time_cascade(drep, dist, node)
    got, found, _ = dist.query(keys[: n // 4], source="device")
    assert bool(found.all())
    print(
        f"4x P100    : imbalance {drep.load_imbalance:.3f}, "
        f"modelled {throughput(n, timing.total) / 1e9:.2f} G inserts/s "
        f"host-sided ({throughput(n, timing.device_only) / 1e9:.2f} device-sided)"
    )
    print(
        f"engine     : {dist.engine.name}, kernel phase measured "
        f"{drep.kernel_wall_seconds * 1e3:.1f} ms across {node.num_devices} shards"
    )
    dist.free()
    print("demo OK")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    from repro.bench import run_single_gpu_sweep

    sweep = run_single_gpu_sweep(
        n=args.n,
        loads=tuple(args.loads),
        group_sizes=tuple(args.groups),
        distribution=args.distribution,
    )
    print(sweep.format())
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.bench import evaluate_claims, format_scorecard

    results = evaluate_claims(quick=not args.full)
    print(format_scorecard(results))
    return 0 if all(r.ok for r in results) else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench.figures import print_all_figures

    print_all_figures(full=args.full)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        bench_pipeline_depth,
        distribution_speedup,
        format_distribution_records,
        format_records,
        run_distribution_suite,
        run_wallclock_suite,
        write_results,
    )

    n = 1 << 12 if args.smoke else args.n
    if args.kernels == "ref" and not args.smoke and n > (1 << 14):
        print(
            "note: kernels='ref' runs the per-operation verification "
            "kernels; large n will take a very long time (--smoke "
            "recommended)"
        )
    # resolve --topology/--m once (mutually exclusive) so every suite
    # row reports the same GPU count
    num_gpus = _resolve_topology_arg(args).num_devices
    records: list = []
    if args.suite in ("wallclock", "all"):
        wall = run_wallclock_suite(
            n=n,
            m=args.m,
            topology=args.topology,
            engines=tuple(args.engines) if args.engines else None,
            workers=args.workers,
            kernels=args.kernels,
        )
        if args.kernels != "ref":
            wall.extend(
                bench_pipeline_depth(n, m=args.m, topology=args.topology)
            )
        print(format_records(wall))
        if args.kernels == "ref":
            print(
                "(ref kernels: single-shard rows only — the cascade has "
                "no ref-level dispatch)"
            )
        records.extend(wall)
    if args.suite in ("distribution", "all"):
        dist = run_distribution_suite(n=n, m=args.m, topology=args.topology)
        print(format_distribution_records(dist))
        print(
            f"distribution total speedup: "
            f"{distribution_speedup(dist, 'total'):.2f}x fused vs reference"
        )
        records.extend(dist)
    if args.suite in ("serving", "all"):
        from repro.bench import format_serving_records, run_serving_suite

        serving = run_serving_suite(
            num_gpus=num_gpus,
            batches_per_client=4 if args.smoke else 16,
            batch_size=4096 if args.smoke else 32768,
        )
        print(format_serving_records(serving))
        off = next(r for r in serving if r.cache == "off")
        on = next(r for r in serving if r.cache == "on")
        if off.seconds and on.seconds:
            print(
                f"serving cache lift: {off.seconds / on.seconds:.2f}x "
                f"at {on.hit_rate:.0%} hit rate"
            )
        records.extend(serving)
    if args.out:
        path = write_results(records, args.out)
        print(f"wrote {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.multigpu import DistributedHashTable
    from repro.workloads import random_values, unique_keys

    n = 1 << 12 if args.smoke else args.n
    keys = unique_keys(n, seed=3)
    values = random_values(n, seed=4)
    node = _resolve_topology_arg(args)
    with obs.session() as (recorder, metrics):
        table = DistributedHashTable.for_workload(
            node, keys, 0.95, group_size=4,
            engine=args.engine, workers=args.workers,
        )
        try:
            table.insert(keys, values, source="host")
            _, found, _ = table.query(keys, source="host")
        finally:
            table.free()
    if not bool(found.all()):
        print("trace workload failed: not all inserted keys were found")
        return 1

    data = obs.to_perfetto(recorder, metrics)
    problems = obs.validate_trace(data)
    path = obs.write_trace(args.out, recorder, metrics)

    print(obs.render_trace(recorder))
    print()
    counts = {c: len(recorder.by_category(c)) for c in sorted(recorder.categories())}
    summary = ", ".join(f"{c}={k}" for c, k in counts.items())
    print(f"{len(recorder.spans)} spans ({summary})")
    print(f"makespan {recorder.makespan * 1e3:.1f} ms, trace {recorder.trace_id}")
    print(f"wrote {path} (open at https://ui.perfetto.dev)")
    if problems:
        print(f"INVALID trace_event output ({len(problems)} problems):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    return 0


def _cmd_grow(args: argparse.Namespace) -> int:
    """Ingest far past the load ceiling through every table flavour.

    Each stage starts at a small capacity with a ``GrowthPolicy`` and
    streams in ``--scale`` times that many pairs; success means zero
    ``InsertionError``, every key retrievable, at least one recorded
    rehash, and a valid Perfetto trace containing the lifecycle spans.
    """
    import numpy as np

    from repro import obs
    from repro.core import (
        GrowthPolicy,
        PartitionedWarpDriveTable,
        WarpDriveHashTable,
    )
    from repro.multigpu import DistributedHashTable, p100_nvlink_node
    from repro.pipeline.driver import AsyncCascadeDriver
    from repro.workloads import random_values, unique_keys

    policy = GrowthPolicy(max_load=args.max_load)
    base = 256 if args.smoke else args.capacity
    n = int(base * args.scale)
    keys = unique_keys(n, seed=11)
    values = random_values(n, seed=12)
    chunks = list(
        zip(np.array_split(keys, 8), np.array_split(values, 8))
    )
    failures: list[str] = []

    def check(label: str, table, query) -> None:
        got, found = query()
        if not bool(found.all()) or not bool((got == values).all()):
            failures.append(f"{label}: grown table lost pairs")

    with obs.session() as (recorder, metrics):
        t = WarpDriveHashTable(base, growth=policy)
        for ck, cv in chunks:
            t.insert(ck, cv)
        if t.grows == 0:
            failures.append("single: no growth at 4x ingest")
        check("single", t, lambda: t.query(keys))
        print(f"single       capacity {base} -> {t.capacity} "
              f"({t.grows} grows)")

        pt = PartitionedWarpDriveTable(
            base, max_partition_bytes=base * 2, growth=policy
        )
        for ck, cv in chunks:
            pt.insert(ck, cv)
        check("partitioned", pt, lambda: pt.query(keys))
        print(f"partitioned  capacity {base} -> {pt.capacity} "
              f"({sum(s.grows for s in pt.subtables)} grows)")
        pt.free()

        node = p100_nvlink_node(4)
        dt = DistributedHashTable(base, topology=node, growth=policy)
        for ck, cv in chunks:
            dt.insert(ck, cv)
        check("distributed", dt,
              lambda: dt.query(keys)[:2])
        rehash_xfers = sum(
            r.tag == "grow rehash" for r in dt.transfer_log.records
        )
        print(f"distributed  capacity {base} -> {dt.total_capacity} "
              f"({sum(s.grows for s in dt.shards)} grows, "
              f"{rehash_xfers} D2D rehash transfers)")
        dt.free()

        st = DistributedHashTable(base, topology=node, growth=policy)
        driver = AsyncCascadeDriver(st, num_threads=2, measure=True)
        res = driver.insert_stream(chunks)
        check("driver", st, lambda: st.query(keys)[:2])
        grow_spans = [
            s for s in res.measured.spans if s.op == "insert grow"
        ]
        if not grow_spans:
            failures.append("driver: no measured mid-stream grow span")
        print(f"driver       capacity {base} -> {st.total_capacity} "
              f"({len(grow_spans)} measured grow spans)")
        st.free()

    data = obs.to_perfetto(recorder, metrics)
    problems = obs.validate_trace(data)
    if problems:
        failures.extend(f"trace: {p}" for p in problems)
    names = {s.name for s in recorder.spans}
    for required in ("grow", "shard growth"):
        if required not in names:
            failures.append(f"trace: no '{required}' span recorded")
    rehashes = metrics.counters.get("kernel.rehash.ops", 0)
    if not rehashes:
        failures.append("metrics: kernel.rehash.ops never incremented")
    print(f"trace: {len(recorder.spans)} spans, "
          f"{rehashes} pairs migrated by rehash kernels")
    if args.out:
        path = obs.write_trace(args.out, recorder, metrics)
        print(f"wrote {path}")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("growth smoke: all table flavours grew cleanly")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Exercise the ``depth >= 2`` pipeline end to end.

    Four gates, all of which must hold: (1) the pipelined stream is
    bit-identical to ``depth=1`` on the same data; (2) a one-wave
    staging budget produces real backpressure, surfaced as
    ``pipeline.stall`` spans and metrics; (3) under modelled pacing the
    pipelined *measured* makespan beats ``depth=1`` because staging
    spans genuinely overlap device-occupancy spans in the trace; (4) the
    whole session exports a valid Perfetto trace.
    """
    import numpy as np

    from repro import obs
    from repro.multigpu import DistributedHashTable
    from repro.pipeline import AsyncCascadeDriver
    from repro.workloads import random_values, unique_keys

    n = 1 << 14 if args.smoke else args.n
    num_batches = 8
    depth = args.depth
    keys = unique_keys(n, seed=21)
    values = random_values(n, seed=22)
    batches = list(
        zip(np.array_split(keys, num_batches), np.array_split(values, num_batches))
    )
    per_batch = (n // num_batches) * 8  # packed uint64 pairs
    failures: list[str] = []

    def run(d: int, *, budget=None, pace="none", scale=20.0):
        table = DistributedHashTable(
            int(n / 0.8), topology=_resolve_topology_arg(args)
        )
        driver = AsyncCascadeDriver(
            table, depth=d, staging_budget=budget, pace=pace, scale=scale
        )
        ins = driver.insert_stream(iter(batches))
        qry = driver.query_stream([k for k, _ in batches])
        ks, vs = table.export()
        order = np.argsort(ks, kind="stable")
        state = (len(table), ks[order].tobytes(), vs[order].tobytes())
        table.free()
        return ins, qry, state

    with obs.session() as (recorder, metrics):
        # 1. bit-identity: depth=1 vs the pipelined depth
        _, base_qry, base_state = run(1)
        ins, qry, state = run(depth)
        if state != base_state:
            failures.append(f"depth={depth}: table state differs from depth=1")
        if (
            qry.values.tobytes() != base_qry.values.tobytes()
            or qry.found.tobytes() != base_qry.found.tobytes()
        ):
            failures.append(f"depth={depth}: query results differ from depth=1")
        print(
            f"identity     depth {depth} vs 1: {n} pairs, "
            f"{ins.num_ops + qry.num_ops} streamed ops, bit-identical="
            f"{state == base_state}"
        )

        # 2. backpressure: a one-wave budget must stall the stager
        bp_ins, _, _ = run(4, budget=per_batch, pace="modelled", scale=50.0)
        if bp_ins.stall_seconds <= 0:
            failures.append("backpressure: one-wave budget produced no stall")
        if bp_ins.peak_staged_bytes > per_batch:
            failures.append(
                f"backpressure: peak {bp_ins.peak_staged_bytes} B "
                f"exceeded the {per_batch} B budget"
            )
        print(
            f"backpressure depth 4, budget {per_batch} B: "
            f"peak {bp_ins.peak_staged_bytes} B, "
            f"stalled {bp_ins.stall_seconds * 1e3:.1f} ms"
        )

    if not any(s.name == "pipeline.stall" for s in recorder.spans):
        failures.append("trace: no pipeline.stall span recorded")
    if metrics.counter("pipeline.stall.count") < 1:
        failures.append("metrics: pipeline.stall.count never incremented")

    # staging spans (stager thread) overlapping commit-side occupancy
    stage_spans = [
        s for s in recorder.spans
        if s.category == "pipeline" and s.name.endswith(" stage")
    ]
    busy_spans = [
        s for s in recorder.spans
        if s.category == "batch" or s.name == "pipeline.pace"
    ]
    overlapped = any(
        s.start < b.end and b.start < s.end
        for s in stage_spans for b in busy_spans
    )
    if not stage_spans:
        failures.append("trace: no pipelined staging spans recorded")
    if not overlapped:
        failures.append(
            "trace: staging never overlapped a commit/occupancy span"
        )
    print(
        f"trace        {len(recorder.spans)} spans, "
        f"{len(stage_spans)} staged waves, overlap={overlapped}"
    )

    data = obs.to_perfetto(recorder, metrics)
    problems = obs.validate_trace(data)
    if problems:
        failures.extend(f"trace: {p}" for p in problems)
    if args.out:
        path = obs.write_trace(args.out, recorder, metrics)
        print(f"wrote {path} (open at https://ui.perfetto.dev)")

    # 3. measured overlap win under modelled pacing (same data both
    # depths; one retry absorbs host-scheduler noise)
    on = 1 << 19 if args.smoke else max(n, 1 << 19)
    okeys = unique_keys(on, seed=31)
    ovalues = random_values(on, seed=32)
    obatches = list(zip(np.array_split(okeys, 8), np.array_split(ovalues, 8)))

    def measured(d: int) -> float:
        table = DistributedHashTable(
            on * 2, topology=_resolve_topology_arg(args)
        )
        driver = AsyncCascadeDriver(
            table, depth=d, pace="modelled", measure=True, scale=500.0
        )
        res = driver.insert_stream(iter(obatches))
        table.free()
        return res.measured_makespan

    for attempt in (1, 2):
        m1, md = measured(1), measured(depth)
        if md < m1:
            break
    reduction = (1 - md / m1) * 100
    print(
        f"overlap      measured makespan {m1 * 1e3:.1f} ms -> "
        f"{md * 1e3:.1f} ms at depth {depth} ({reduction:.1f}% reduction)"
    )
    if md >= m1:
        failures.append(
            f"overlap: depth={depth} measured makespan {md * 1e3:.1f} ms "
            f"did not beat depth=1 {m1 * 1e3:.1f} ms"
        )

    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("stream smoke: pipelined, bounded, bit-identical, and overlapped")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Hierarchical-topology exercise: cluster bit-identity + NIC charges.

    Runs the same insert/erase/query workload through a flat 4-GPU node,
    a ``cluster:1x4`` (one-node cluster), and a ``cluster:2x2`` (same
    four GPUs split across two nodes).  Success means: the one-node
    cluster is bit-identical to the flat node *including* its charged
    bytes; the two-node cluster reaches the identical table state and
    query answers while charging part of the all-to-all to the NIC; and
    the traced run validates as Perfetto output with ``transpose.intra``
    / ``transpose.inter`` child spans (``--smoke`` is the CI gate).
    """
    import numpy as np

    from repro import obs
    from repro.multigpu import DistributedHashTable, topology as build_topology

    from repro.workloads import random_values, unique_keys

    n = 1 << 13 if args.smoke else args.n
    keys = unique_keys(n, seed=41)
    values = random_values(n, seed=42)
    erase_keys = keys[: n // 4]
    query_keys = keys
    failures: list[str] = []

    def run(spec: str):
        """One full cascade workload; returns (state, answers, reports)."""
        table = DistributedHashTable(int(n / 0.8), topology=build_topology(spec))
        try:
            ins = table.insert(keys, values, source="host")
            table.erase(erase_keys)
            got, found, qry = table.query(query_keys, source="host")
            ks, vs = table.export()
            order = np.argsort(ks, kind="stable")
            state = (len(table), ks[order].tobytes(), vs[order].tobytes())
            charges = tuple(
                (r.op, r.alltoall_bytes, r.alltoall_seconds,
                 r.reverse_bytes, r.reverse_seconds)
                for r in (ins, qry)
            )
        finally:
            table.free()
        return state, (got.tobytes(), found.tobytes()), charges, (ins, qry)

    flat_state, flat_ans, flat_charges, _ = run("p100:4")

    with obs.session() as (recorder, metrics):
        one_state, one_ans, one_charges, (one_ins, one_qry) = run("cluster:1x4")
        two_state, two_ans, two_charges, (two_ins, two_qry) = run("cluster:2x2")

    # 1. one-node cluster: bit-identical to flat, charges included
    if one_state != flat_state or one_ans != flat_ans:
        failures.append("cluster:1x4 state/answers differ from flat p100:4")
    if one_charges != flat_charges:
        failures.append("cluster:1x4 charged bytes/seconds differ from flat")
    if one_ins.alltoall_inter_bytes or one_qry.reverse_inter_bytes:
        failures.append("cluster:1x4 charged traffic to the NIC")
    print(
        f"identity     cluster:1x4 vs p100:4: {n} pairs, bit-identical="
        f"{one_state == flat_state and one_charges == flat_charges}"
    )

    # 2. two-node cluster: same data, NIC-charged exchange
    if two_state != flat_state or two_ans != flat_ans:
        failures.append("cluster:2x2 state/answers differ from flat p100:4")
    inter = two_ins.alltoall_inter_bytes + two_qry.alltoall_inter_bytes
    if inter <= 0:
        failures.append("cluster:2x2 charged no inter-node traffic")
    if two_ins.num_nodes != 2:
        failures.append(f"cluster:2x2 report num_nodes={two_ins.num_nodes}")
    total = two_ins.alltoall_intra_bytes + two_ins.alltoall_inter_bytes
    if total != two_ins.alltoall_bytes:
        failures.append(
            f"cluster:2x2 intra+inter {total} != total {two_ins.alltoall_bytes}"
        )
    print(
        f"hierarchy    cluster:2x2: identical state, "
        f"{inter} B over the NIC "
        f"({two_ins.alltoall_inter_seconds * 1e6:.1f} us inter-level)"
    )

    # 3. trace: hierarchical child spans + valid Perfetto output
    intra_spans = [s for s in recorder.spans if s.name == "transpose.intra"]
    inter_spans = [s for s in recorder.spans if s.name == "transpose.inter"]
    if not intra_spans or not inter_spans:
        failures.append(
            f"trace: expected transpose.intra/inter spans, got "
            f"{len(intra_spans)}/{len(inter_spans)}"
        )
    data = obs.to_perfetto(recorder, metrics)
    problems = obs.validate_trace(data)
    failures.extend(f"trace: {p}" for p in problems)
    if args.out:
        path = obs.write_trace(args.out, recorder, metrics)
        print(f"wrote {path} (open at https://ui.perfetto.dev)")
    print(
        f"trace        {len(recorder.spans)} spans, "
        f"{len(intra_spans)} intra + {len(inter_spans)} inter transpose "
        f"levels, valid={not problems}"
    )

    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("cluster smoke: hierarchical, NIC-charged, and bit-identical")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    """Compact-layout exercise: bit-identity + narrower charged bytes.

    Four gates, all of which must hold: (1) a ``compact`` table returns
    bit-identical query/erase results and counter-consistent reports vs
    ``aos`` and ``soa`` across probings, kernel backends, and
    growth/tombstone churn; (2) a distributed cascade over compact
    shards at quotienting capacity charges strictly fewer modelled
    VRAM/exchange bytes while answering identically; (3) a compact
    snapshot round-trips through :mod:`repro.core.serialize` into any
    layout; (4) the perf model prices the narrower record no slower.
    """
    import numpy as np

    from repro.core import GrowthPolicy, WarpDriveHashTable
    from repro.core.serialize import load_table, save_table
    from repro.core.store import STORE_LAYOUTS, slot_record_bytes
    from repro.multigpu import DistributedHashTable
    from repro.perfmodel import P100, predicted_op_seconds
    from repro.workloads import random_values, unique_keys

    n = 2000 if args.smoke else args.n
    keys = unique_keys(n, seed=51)
    values = random_values(n, seed=52)
    failures: list[str] = []

    # 1. single-table bit-identity under growth + tombstone churn
    def churn(layout: str, probing: str, kernels: str):
        t = WarpDriveHashTable(
            max(256, n // 4), probing=probing, layout=layout,
            growth=GrowthPolicy(max_load=0.8),
        )
        for ck, cv in zip(np.array_split(keys, 4), np.array_split(values, 4)):
            t.insert(ck, cv, kernels=kernels)
        erased = t.erase(keys[: n // 2], kernels=kernels)
        t.insert(keys[: n // 4], values[: n // 4], kernels=kernels)
        got, found = t.query(keys, kernels=kernels)
        # record widths stay at 8 B below the 2^16 quotienting crossover,
        # so the sector counters must agree across layouts exactly
        state = (
            got.tobytes(), found.tobytes(), np.asarray(erased).tobytes(),
            len(t), t.grows, t.counter.load_sectors, t.counter.store_sectors,
        )
        record = t.store.record_bytes
        t.free()
        return state, record

    combos = 0
    for probing in ("window", "double", "linear"):
        for kernels in ("fast", "compiled"):
            states = {
                layout: churn(layout, probing, kernels)[0]
                for layout in sorted(STORE_LAYOUTS)
            }
            combos += 1
            if len(set(states.values())) != 1:
                failures.append(
                    f"identity: layouts diverge at probing={probing} "
                    f"kernels={kernels}"
                )
    print(f"identity     {combos} probing x kernel combos, "
          f"{len(STORE_LAYOUTS)} layouts, grown+churned: "
          f"{'DIVERGED' if failures else 'bit-identical'}")

    # 2. distributed: narrower charges at quotienting capacity
    def cascade(layout: str):
        t = DistributedHashTable(
            (1 << 17) * 4, topology="p100:4", layout=layout
        )
        ins = t.insert(keys, values)
        got, found, qry = t.query(keys)
        t.free()
        return ins, qry, (got.tobytes(), found.tobytes())

    ins_a, qry_a, ans_a = cascade("aos")
    ins_c, qry_c, ans_c = cascade("compact")
    if ans_a != ans_c:
        failures.append("cascade: compact answers differ from aos")
    if not (ins_c.table_bytes < ins_a.table_bytes):
        failures.append("cascade: compact did not shrink modelled VRAM")
    if not (ins_c.alltoall_bytes < ins_a.alltoall_bytes):
        failures.append("cascade: compact did not shrink all-to-all bytes")
    if not (qry_c.reverse_bytes < qry_a.reverse_bytes):
        failures.append("cascade: compact did not shrink reverse bytes")
    print(
        f"cascade      4x P100 at 2^17/GPU: record "
        f"{ins_a.record_bytes} -> {ins_c.record_bytes} B, VRAM "
        f"{ins_a.table_bytes >> 20} -> {ins_c.table_bytes >> 20} MiB, "
        f"all-to-all {ins_a.alltoall_bytes} -> {ins_c.alltoall_bytes} B"
    )

    # 3. serialize: compact snapshot loads bit-identically into aos
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        t = WarpDriveHashTable(1 << 12, layout="compact")
        t.insert(keys, values)
        save_table(t, f"{tmp}/compact.npz")
        back = load_table(f"{tmp}/compact.npz")
        if back.config.layout != "compact" or not np.array_equal(
            back.slots, t.slots
        ):
            failures.append("serialize: compact round-trip lost slots")
        t.free()
        back.free()
    print("serialize    compact -> disk -> compact: packed slots preserved")

    # 4. perf model: narrower record never predicts slower
    for g in (8, 16, 32):
        wide = predicted_op_seconds(0.8, g, P100, op="query", record_bytes=8)
        narrow = predicted_op_seconds(
            0.8, g, P100, op="query",
            record_bytes=slot_record_bytes("compact", 1 << 24),
        )
        if narrow > wide:
            failures.append(f"perfmodel: compact slower at g={g}")
    print("perfmodel    compact record priced <= packed at g in {8,16,32}")

    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("compact smoke: bit-identical, narrower charges, round-trippable")
    return 0


def _parse_budget(text: str) -> float:
    """Seconds from a ``30s`` / ``2m`` / plain-number budget string."""
    text = text.strip().lower()
    if text.endswith("m"):
        return float(text[:-1]) * 60.0
    if text.endswith("s"):
        return float(text[:-1])
    return float(text)


def _cmd_racecheck(args: argparse.Namespace) -> int:
    from repro.sanitize.mutants import MUTANTS, run_clean, run_mutant
    from repro.simt.scheduler import RandomScheduler, RoundRobinScheduler

    schedulers = {
        "round_robin": lambda: RoundRobinScheduler(),
        "random": lambda: RandomScheduler(seed=args.seed),
    }
    names = [args.mutant] if args.mutant else ["clean", *MUTANTS]
    failures = 0
    for name in names:
        for label, make in schedulers.items():
            if name == "clean":
                report = run_clean(make())
                ok = report.clean
                verdict = "clean" if ok else "FINDINGS (unexpected)"
            else:
                report = run_mutant(name, make())
                expected = MUTANTS[name].expected_rule
                ok = expected in report.rules_hit()
                verdict = (
                    f"flagged [{expected}]" if ok else "NOT FLAGGED (bug!)"
                )
            failures += not ok
            print(f"{name:26s} {label:12s} {verdict}")
            if args.verbose or not ok:
                for line in report.format().splitlines():
                    print("    " + line)
    return 1 if failures else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.sanitize.fuzz import replay_seed, run_fuzz
    from repro.sanitize.inject import INJECTIONS

    if args.inject is not None and args.inject not in INJECTIONS:
        print(f"unknown injection {args.inject!r}; choose from "
              f"{sorted(INJECTIONS)}")
        return 2

    if args.replay is not None:
        failure = replay_seed(args.replay, inject=args.inject)
        if failure is None:
            print(f"replay seed={args.replay}: all differential checks pass")
            return 0
        print(failure.message())
        return 1

    result = run_fuzz(
        budget_seconds=_parse_budget(args.budget) if args.budget else None,
        max_cases=args.max_cases,
        start_seed=args.seed,
        inject=args.inject,
        corpus_path=args.corpus,
        shrink_failures=not args.no_shrink,
        log=print,
    )
    print(result.format())
    return 1 if result.failures else 0


def _serve_smoke() -> int:
    """The ``repro serve --smoke`` CI gate: correctness + faults + cache.

    Four gates on one in-process server: (1) insert/query/erase round
    trips through the socket layer; (2) repeated hot-key traffic is
    answered by the cache tier and invalidation keeps it coherent;
    (3) a malformed frame draws a typed error, never a hang or a
    corrupted table; (4) a saturated admission budget rejects with
    ``OVERLOADED`` and counts ``serve.rejected``.
    """
    import socket as socketlib

    import numpy as np

    from repro.serve import (
        ErrorCode,
        FrameType,
        KVClient,
        KVServer,
        ServeError,
        read_frame,
    )

    failures: list[str] = []
    server = KVServer.create(
        num_gpus=4, capacity=1 << 13, oplog=True, batch_window=0.0005
    ).start()
    try:
        rng = np.random.default_rng(5)
        keys = np.arange(1, 513, dtype=np.uint32)
        values = rng.integers(0, 1 << 32, size=512, dtype=np.uint32)
        with KVClient(server.address, name="smoke") as client:
            client.insert(keys, values)
            for _ in range(3):  # repeats promote the keys into the cache
                got, found = client.query(keys)
            if not (found.all() and (got == values).all()):
                failures.append("serve: query round-trip mismatch")
            erased = client.erase(keys[:64])
            if int(erased.sum()) != 64:
                failures.append("serve: erase round-trip mismatch")
            _, refound = client.query(keys[:64])
            if refound.any():
                failures.append("serve: cache served erased keys (stale)")
            counters = client.stats()["counters"]
        if not counters.get("serve.cache.hits"):
            failures.append("serve: hot keys never hit the cache tier")

        # gate 3: garbage bytes → typed error frame, connection closed
        raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        raw.connect(server.address)
        raw.sendall(b"\x00" * 12)
        reply = read_frame(raw)
        if reply.type != FrameType.ERROR:
            failures.append("serve: malformed header not answered typed")
        raw.close()

        # gate 4: a one-frame budget rejects the second in-flight frame
        tiny = KVServer.create(
            num_gpus=2,
            capacity=1 << 10,
            admission_bytes=1 << 10,
            batch_window=0.2,  # park frame one in the coalescer window
        ).start()
        try:
            with KVClient(
                tiny.address, name="flood", presplit=False
            ) as flood:
                overloaded = False
                try:
                    flood.insert(
                        np.arange(1, 257, dtype=np.uint32),
                        np.ones(256, dtype=np.uint32),
                    )
                    flood.insert(
                        np.arange(300, 556, dtype=np.uint32),
                        np.ones(256, dtype=np.uint32),
                    )
                except ServeError as exc:
                    overloaded = exc.code == ErrorCode.OVERLOADED
            if not overloaded:
                failures.append("serve: saturated budget never rejected")
            if not tiny.stats.get("serve.rejected"):
                failures.append("serve: serve.rejected counter still zero")
        finally:
            tiny.close()
    finally:
        server.close()
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(
        "serve smoke: round-trips, cache coherence, typed faults, "
        "and admission backpressure all hold"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import KVServer

    if args.smoke:
        return _serve_smoke()
    address = args.socket
    if address is None and args.port is not None:
        address = (args.host, args.port)
    server = KVServer.create(
        num_gpus=args.m,
        capacity=args.capacity,
        address=address,
        cache=not args.no_cache,
        cache_size=args.cache_size,
        batch_window=args.batch_window,
    ).start()
    addr = server.address
    shown = addr if isinstance(addr, str) else f"{addr[0]}:{addr[1]}"
    print(f"serving {args.m}-GPU table (capacity {args.capacity}) on {shown}")
    print("stop with Ctrl-C or a client-side shutdown")
    try:
        server.wait()
    except KeyboardInterrupt:
        server.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json as jsonlib
    import time as timelib

    import numpy as np

    from repro.serve import KVClient
    from repro.workloads import random_values, serving_zipf_keys, universe_key_map

    address = args.socket
    if address is None and args.port is not None:
        address = (args.host, args.port)
    if address is None:
        print("FAIL client needs --socket PATH or --port N")
        return 2
    with KVClient(
        address, name=args.name, retry_overloaded=8
    ) as client:
        if args.op == "stats":
            print(jsonlib.dumps(client.stats(), indent=2))
            return 0
        if args.op == "shutdown":
            client.shutdown_server()
            print("server asked to shut down")
            return 0
        if args.op == "prefill":
            keys = universe_key_map(args.universe, seed=args.seed)
            values = random_values(args.universe, seed=args.seed ^ 0xBEEF)
            count = client.insert(keys, values)
            print(f"prefilled {count} universe pairs")
            return 0
        # op == "zipf": the Zipfian load generator against a live server
        total = 0
        t0 = timelib.perf_counter()
        for batch in range(args.batches):
            keys = serving_zipf_keys(
                args.batch_size,
                args.s,
                universe=args.universe,
                seed=args.seed + 7919 * (batch + 1),
                map_seed=args.seed,
            )
            _, found = client.query(keys)
            total += int(keys.size)
        seconds = timelib.perf_counter() - t0
        counters = client.stats()["counters"]
        hits = counters.get("serve.cache.hits", 0)
        misses = counters.get("serve.cache.misses", 0)
        rate = hits / (hits + misses) if hits + misses else 0.0
        print(
            f"{total} Zipf(s={args.s}) queries in {seconds:.3f} s "
            f"({total / seconds / 1e6:.3f} Mops/s), "
            f"found {int(found.sum())}/{found.size} in last batch, "
            f"server hit rate {rate:.0%}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="WarpDrive reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and calibration summary").set_defaults(
        fn=_cmd_info
    )

    demo = sub.add_parser("demo", help="functional single+multi GPU demo")
    demo.add_argument("--n", type=int, default=100_000, help="pairs to insert")
    demo.add_argument(
        "--engine",
        choices=("serial", "thread", "process"),
        default="serial",
        help="shard-execution backend for the multi-GPU part",
    )
    demo.add_argument(
        "--workers", type=int, default=None, help="pool size for thread/process"
    )
    demo.add_argument(
        "--topology", default=None, metavar="SPEC",
        help='''topology spec: "p100:M", "pcie:M", "dgx1v", "cluster:NxM" (see repro.options)''',
    )
    demo.set_defaults(fn=_cmd_demo)

    rates = sub.add_parser("rates", help="modelled single-GPU rate table")
    rates.add_argument("--n", type=int, default=1 << 14)
    rates.add_argument(
        "--loads", type=float, nargs="+", default=[0.5, 0.8, 0.95]
    )
    rates.add_argument(
        "--groups", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32]
    )
    rates.add_argument(
        "--distribution", choices=("unique", "uniform", "zipf"), default="unique"
    )
    rates.set_defaults(fn=_cmd_rates)

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("--full", action="store_true")
    figures.set_defaults(fn=_cmd_figures)

    score = sub.add_parser(
        "scorecard", help="grade every checkable paper claim"
    )
    score.add_argument("--full", action="store_true")
    score.set_defaults(fn=_cmd_scorecard)

    bench = sub.add_parser(
        "bench", help="measured wall-clock suites (engines, distribution)"
    )
    bench.add_argument("--n", type=int, default=1 << 18, help="keys per bench")
    bench.add_argument(
        "--m", type=int, default=None,
        help="GPUs in the cascade (default 4; exclusive with --topology)",
    )
    bench.add_argument(
        "--topology", default=None, metavar="SPEC",
        help='''topology spec: "p100:M", "pcie:M", "dgx1v", "cluster:NxM" (see repro.options)''',
    )
    bench.add_argument(
        "--suite",
        choices=("wallclock", "distribution", "serving", "all"),
        default="all",
        help="which measured suite(s) to run",
    )
    bench.add_argument(
        "--smoke", action="store_true", help="tiny n for a quick sanity run"
    )
    bench.add_argument(
        "--engines",
        nargs="+",
        choices=("serial", "thread", "process"),
        default=None,
        help="backends to compare (default: all)",
    )
    bench.add_argument(
        "--workers", type=int, default=None, help="pool size for thread/process"
    )
    bench.add_argument(
        "--kernels",
        choices=("fast", "ref", "compiled"),
        default="fast",
        help="kernel backend for the wallclock suite (compiled falls "
        "back to fast without the C kernel library; rows record what ran)",
    )
    bench.add_argument(
        "--out", default=None, help="also write records to this JSON path"
    )
    bench.set_defaults(fn=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="serve a distributed table over a unix/TCP socket "
        "(--smoke is the CI gate)",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="in-process serve/fault/cache gate for CI",
    )
    serve.add_argument("--m", type=int, default=4, help="GPUs behind the server")
    serve.add_argument(
        "--capacity", type=int, default=1 << 16, help="total table capacity"
    )
    serve.add_argument(
        "--socket", default=None,
        help="unix socket path (default: fresh path under /tmp)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (0 picks one); overrides the unix default",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the hot-key cache tier"
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096, help="hot-key cache capacity"
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.002,
        help="seconds the coalescer waits to merge requests",
    )
    serve.set_defaults(fn=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="drive a running `repro serve` (Zipfian load generator)",
    )
    client.add_argument(
        "--op", choices=("zipf", "prefill", "stats", "shutdown"),
        default="zipf", help="what to run against the server",
    )
    client.add_argument("--socket", default=None, help="server unix socket path")
    client.add_argument("--host", default="127.0.0.1", help="server TCP host")
    client.add_argument("--port", type=int, default=None, help="server TCP port")
    client.add_argument("--name", default=None, help="client identity for HELLO")
    client.add_argument("--s", type=float, default=1.0, help="Zipf skew exponent")
    client.add_argument(
        "--universe", type=int, default=4096, help="distinct keys in the trace"
    )
    client.add_argument("--batches", type=int, default=16)
    client.add_argument("--batch-size", type=int, default=2048)
    client.add_argument("--seed", type=int, default=11)
    client.set_defaults(fn=_cmd_client)

    trace = sub.add_parser(
        "trace",
        help="run a traced m-GPU cascade and write Perfetto trace_event JSON",
    )
    trace.add_argument("--n", type=int, default=1 << 16, help="pairs to stream")
    trace.add_argument(
        "--m", type=int, default=None,
        help="GPUs in the cascade (default 4; exclusive with --topology)",
    )
    trace.add_argument(
        "--topology", default=None, metavar="SPEC",
        help='''topology spec: "p100:M", "pcie:M", "dgx1v", "cluster:NxM" (see repro.options)''',
    )
    trace.add_argument(
        "--engine",
        choices=("serial", "thread", "process"),
        default="serial",
        help="shard-execution backend to trace",
    )
    trace.add_argument(
        "--workers", type=int, default=None, help="pool size for thread/process"
    )
    trace.add_argument(
        "--smoke", action="store_true", help="tiny n for a quick sanity run"
    )
    trace.add_argument(
        "--out", default="repro.trace.json", help="trace_event JSON output path"
    )
    trace.set_defaults(fn=_cmd_trace)

    grow = sub.add_parser(
        "grow",
        help="dynamic-growth exercise across every table flavour",
    )
    grow.add_argument(
        "--smoke", action="store_true",
        help="small fixed workload for CI (capacity 256)",
    )
    grow.add_argument("--capacity", type=int, default=1024,
                      help="starting capacity per stage")
    grow.add_argument("--scale", type=float, default=4.0,
                      help="ingest scale x starting capacity pairs")
    grow.add_argument("--max-load", type=float, default=0.9,
                      help="GrowthPolicy load ceiling")
    grow.add_argument("--out", default=None,
                      help="optional Perfetto trace output path")
    grow.set_defaults(fn=_cmd_grow)

    stream = sub.add_parser(
        "stream",
        help="streaming-pipeline exercise: depth identity, backpressure, "
        "measured overlap",
    )
    stream.add_argument(
        "--smoke", action="store_true",
        help="small fixed workload for CI",
    )
    stream.add_argument("--n", type=int, default=1 << 17,
                        help="pairs to stream (8 batches)")
    stream.add_argument(
        "--topology", default=None, metavar="SPEC",
        help='''topology spec: "p100:M", "pcie:M", "dgx1v", "cluster:NxM" (see repro.options)''',
    )
    stream.add_argument("--m", type=int, default=None,
                        help="GPUs in the cascade")
    stream.add_argument("--depth", type=int, default=2,
                        help="pipelined in-flight batch depth to validate")
    stream.add_argument("--out", default=None,
                        help="optional Perfetto trace output path")
    stream.set_defaults(fn=_cmd_stream)

    cluster = sub.add_parser(
        "cluster",
        help="hierarchical-topology exercise: one-node cluster "
        "bit-identity, NIC charging, traced exchange levels",
    )
    cluster.add_argument(
        "--smoke", action="store_true",
        help="small fixed workload for CI",
    )
    cluster.add_argument("--n", type=int, default=1 << 16,
                         help="pairs to ingest per topology")
    cluster.add_argument("--out", default=None,
                         help="optional Perfetto trace output path")
    cluster.set_defaults(fn=_cmd_cluster)

    compact = sub.add_parser(
        "compact",
        help="compact slot layout exercise: cross-layout bit-identity "
        "and narrower charged bytes",
    )
    compact.add_argument(
        "--smoke", action="store_true",
        help="small fixed workload for CI",
    )
    compact.add_argument("--n", type=int, default=1 << 14,
                         help="pairs per identity combo")
    compact.set_defaults(fn=_cmd_compact)

    race = sub.add_parser(
        "racecheck",
        help="SIMT race sanitizer: clean-tree certification + mutant catalogue",
    )
    race.add_argument(
        "--mutant", default=None, help="run one catalogued mutant only"
    )
    race.add_argument(
        "--seed", type=int, default=7, help="random-scheduler seed"
    )
    race.add_argument(
        "--verbose", action="store_true", help="print full reports"
    )
    race.set_defaults(fn=_cmd_racecheck)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of fast paths vs reference"
    )
    fuzz.add_argument(
        "--budget", default=None, help="time budget, e.g. 30s or 2m"
    )
    fuzz.add_argument(
        "--max-cases", type=int, default=None, help="cap on cases run"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="first case seed (cases count up)"
    )
    fuzz.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="re-run the single case derived from SEED and exit",
    )
    fuzz.add_argument(
        "--inject", default=None, metavar="NAME",
        help="enable a seeded fault (see repro.sanitize.inject)",
    )
    fuzz.add_argument(
        "--corpus", default="tests/fuzz/corpus.json",
        help="seed-corpus JSON to append to (replayable regressions)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="skip failure shrinking"
    )
    fuzz.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
