#!/usr/bin/env python
"""Tour of the §VI extensions: the features the paper sketched as future
work, implemented and measurable.

1. **Adaptive group sizing** — retunes |g| to the current load factor.
2. **Partitioned high-capacity maps** — ≤2 GB sub-tables dodge the
   multi-memory-interface CAS degradation.
3. **Multi-value tables** — the §II extension CUDPP would have needed
   for the Zipf experiment.
4. **Snapshots** — save/load a built table without re-inserting.
5. **Async streaming driver** — contribution 3 as a reusable API.

Run:  python examples/extensions_tour.py
"""

import tempfile

import numpy as np

from repro.core import (
    AdaptiveWarpDriveTable,
    MultiValueHashTable,
    PartitionedWarpDriveTable,
    WarpDriveHashTable,
)
from repro.core.serialize import load_table, save_table
from repro.multigpu import DistributedHashTable, p100_nvlink_node
from repro.perfmodel import calibration as cal
from repro.perfmodel.memmodel import cas_degradation
from repro.pipeline import AsyncCascadeDriver
from repro.workloads import BatchStream, unique_keys, zipf_keys

N = 1 << 15


def adaptive_demo() -> None:
    print("== 1. adaptive group sizing (§VI heuristic) ==")
    keys = unique_keys(N, seed=1)
    table = AdaptiveWarpDriveTable(int(N / 0.99) + 1, group_size=32)
    for i in range(4):
        sl = slice(i * N // 4, (i + 1) * N // 4)
        table.insert(keys[sl], keys[sl])
        print(f"  load {table.load_factor:.2f} -> |g| = {table.current_group_size}")
    got, found = table.query(keys)
    assert bool(found.all())
    print(f"  retunes: {table.tuning_history}\n")


def partitioned_demo() -> None:
    print("== 2. partitioned high-capacity map (§VI workaround) ==")
    mono_bytes = 8 << 30
    print(
        f"  monolithic 8 GiB table: CAS factor "
        f"{cas_degradation(mono_bytes):.2f} (past the "
        f"{cal.CAS_DEGRADE_KNEE_BYTES >> 30} GiB knee)"
    )
    table = PartitionedWarpDriveTable(200_000, max_partition_bytes=400_000)
    print(
        f"  partitioned: {table.num_partitions} sub-tables of "
        f"{table.subtable_bytes} B each, CAS factor "
        f"{cas_degradation(table.subtable_bytes):.2f}"
    )
    keys = unique_keys(N, seed=2)
    table.insert(keys, keys)
    got, found = table.query(keys)
    assert bool(found.all())
    print(f"  {len(table)} pairs stored across {table.num_partitions} parts\n")


def multivalue_demo() -> None:
    print("== 3. multi-value table (§II extension) ==")
    keys = zipf_keys(N, s=1.4, universe=500, seed=3)
    table = MultiValueHashTable.for_load_factor(N, 0.8, group_size=4)
    table.insert(keys, np.arange(N, dtype=np.uint32))
    uniq, counts = np.unique(keys, return_counts=True)
    got = table.count(uniq)
    assert (got == counts).all()
    hot = int(uniq[np.argmax(counts)])
    print(
        f"  {N} pairs over {uniq.size} keys; hottest key {hot} holds "
        f"{int(counts.max())} values; count() verified for all keys"
    )
    print(f"  query_multi(hot)[:5] = {table.query_multi(hot)[:5].tolist()}\n")


def snapshot_demo() -> None:
    print("== 4. table snapshots ==")
    table = WarpDriveHashTable.for_load_factor(N, 0.9, group_size=8)
    keys = unique_keys(N, seed=4)
    table.insert(keys, keys)
    with tempfile.NamedTemporaryFile(suffix=".npz") as tmp:
        save_table(table, tmp.name)
        loaded = load_table(tmp.name)
    got, found = loaded.query(keys[:100])
    assert bool(found.all())
    print(f"  snapshot round-trip: {len(loaded)} pairs, byte-identical slots\n")


def driver_demo() -> None:
    print("== 5. async streaming driver (contribution 3 as API) ==")
    node = p100_nvlink_node(4)
    stream = BatchStream(total=N, batch_size=N // 8, seed=5)
    pool = np.concatenate([b.keys for b in stream])
    table = DistributedHashTable.for_workload(node, pool, 0.95)
    driver = AsyncCascadeDriver(table, num_threads=4, scale=(1 << 24) / (N // 8))
    res = driver.insert_stream((b.keys, b.values) for b in stream)
    print(
        f"  insert: {res.reduction * 100:.1f}% wall-time reduction from "
        f"overlap, {res.ops_per_second / 1e9:.2f} G ops/s modelled"
    )
    qres = driver.query_stream(b.keys for b in stream)
    assert bool(qres.found.all())
    print(
        f"  query : {qres.reduction * 100:.1f}% reduction, "
        f"{qres.ops_per_second / 1e9:.2f} G ops/s modelled"
    )


def counting_demo() -> None:
    print("\n== 6. counting table (the hot-key answer to A8) ==")
    from repro.core import CountingHashTable

    keys = zipf_keys(N, s=1.6, universe=300, seed=6)
    counter = CountingHashTable.for_load_factor(400, 0.9)
    for part in np.array_split(keys, 8):  # streamed batches
        counter.add(part)
    uniq, counts = np.unique(keys, return_counts=True)
    assert (counter.count(uniq) == counts).all()
    top = counter.most_common(3)
    print(f"  {N} observations over {len(counter)} keys; top-3: {top}")
    print(
        "  a key repeated M times costs one table update per batch — not "
        "the multi-value table's O(M²/|g|) walk"
    )


def main() -> None:
    adaptive_demo()
    partitioned_demo()
    multivalue_demo()
    snapshot_demo()
    driver_demo()
    counting_demo()


if __name__ == "__main__":
    main()
