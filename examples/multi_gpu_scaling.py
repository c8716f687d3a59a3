#!/usr/bin/env python
"""Multi-GPU scaling and overlap tour (paper §IV-B / §V-C).

Walks the full distributed machinery on a simulated 4×P100 NVLink node:
the multisplit → transposition → insert cascade, strong scaling over
1-4 GPUs, and the asynchronous batch overlap of Fig. 5 — including an
ASCII Gantt chart of the overlapped pipeline.

Run:  python examples/multi_gpu_scaling.py
"""

from repro.multigpu import DistributedHashTable, p100_nvlink_node
from repro.perfmodel import throughput, time_cascade
from repro.pipeline import insert_stages, overlap_improvement, schedule_batches
from repro.workloads import random_values, unique_keys

N = 1 << 17  # pairs per experiment
LOAD = 0.95


def show_topology() -> None:
    node = p100_nvlink_node(4)
    print("== node topology (Fig. 6) ==")
    for a in range(4):
        for b in range(a + 1, 4):
            print(f"  GPU{a} <-> GPU{b}: {node.link_bandwidth(a, b) / 1e9:.0f} GB/s")
    print(f"  bisection bandwidth: {node.bisection_bandwidth() / 1e9:.0f} GB/s")
    print(f"  PCIe switches: {node.num_switches} x "
          f"{node.pcie_switch_bandwidth / 1e9:.0f} GB/s\n")


def scaling_demo() -> None:
    print(f"== strong scaling: insert {N} pairs at load {LOAD} ==")
    keys = unique_keys(N, seed=3)
    values = random_values(N, seed=4)
    tau1 = None
    for m in (1, 2, 3, 4):
        node = p100_nvlink_node(m)
        table = DistributedHashTable.for_load_factor(node, N, LOAD, group_size=4)
        report = table.insert(keys, values, source="device")
        timing = time_cascade(report, table, node)
        secs = timing.device_only
        if tau1 is None:
            tau1 = secs
        eff = tau1 / (m * secs)
        print(
            f"  m={m}: {secs * 1e3:7.3f} ms  "
            f"rate={throughput(N, secs) / 1e9:5.2f} Gops/s  E_s={eff:.2f}  "
            f"(phases: ms={timing.multisplit * 1e3:.2f} a2a={timing.alltoall * 1e3:.2f} "
            f"ins={timing.kernel * 1e3:.2f})"
        )
        # every stored pair is retrievable, wherever it landed
        got, found, _ = table.query(keys[::1000], source="device")
        assert bool(found.all()) and bool((got == values[::1000]).all())
        table.free()
    print()


def overlap_demo() -> None:
    print("== asynchronous overlap (Fig. 5): 12 host-sided insert batches ==")
    node = p100_nvlink_node(4)
    num_batches, batch = 12, 1 << 14
    table = DistributedHashTable.for_load_factor(
        node, num_batches * batch, LOAD, group_size=4
    )
    pool = unique_keys(num_batches * batch, seed=5)
    stage_lists = []
    for b in range(num_batches):
        keys = pool[b * batch : (b + 1) * batch]
        report = table.insert(keys, random_values(batch, seed=b), source="host")
        stage_lists.append(insert_stages(time_cascade(report, table, node)))

    for threads in (1, 2, 4):
        seq, ov, reduction = overlap_improvement(stage_lists, threads)
        util = ov.utilizations()
        print(
            f"  threads={threads}: makespan {ov.makespan * 1e3:7.3f} ms, "
            f"reduction {reduction * 100:4.1f}%, "
            f"PCIe util {util['pcie_up'] * 100:.0f}%"
        )
    print("\n  4-thread pipeline (digits are batch ids):")
    print("  " + schedule_batches(stage_lists, 4).render(width=66).replace("\n", "\n  "))


def main() -> None:
    show_topology()
    scaling_demo()
    overlap_demo()


if __name__ == "__main__":
    main()
