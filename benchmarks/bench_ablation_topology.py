"""A9 — interconnect ablation: the paper's NVLink premise, quantified.

Contribution 2 rests on "exploiting fast GPU interconnection networks
within a single node".  This ablation runs the identical distributed
insert cascade on the paper's NVLink mesh and on an otherwise-equal node
whose peer-to-peer traffic rides PCIe (~10 GB/s shared lanes), isolating
what the interconnect itself buys the transposition step.
"""

from conftest import record

from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node, pcie_only_node
from repro.perfmodel.cascade import time_cascade
from repro.perfmodel.memmodel import throughput
from repro.utils.tables import format_table
from repro.workloads.distributions import make_distribution, random_values

N_SIM = 1 << 14
PAPER_N = 1 << 29
LOAD = 0.95


def _run(node_factory):
    node = node_factory(4)
    keys = make_distribution("unique", N_SIM, seed=71)
    values = random_values(N_SIM, seed=72)
    table = DistributedHashTable.for_workload(node, keys, LOAD, group_size=4)
    rep = table.insert(keys, values, source="device")
    timing = time_cascade(rep, table, node, scale=PAPER_N / N_SIM)
    table.free()
    return timing


def test_nvlink_vs_pcie_interconnect(benchmark):
    def run():
        return _run(p100_nvlink_node), _run(pcie_only_node)

    nvlink, pcie = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = []
    for name, t in (("NVLink mesh (Fig. 6)", nvlink), ("PCIe-only peer links", pcie)):
        rows.append(
            [
                name,
                f"{t.alltoall * 1e3:.1f}",
                f"{t.device_only * 1e3:.1f}",
                f"{throughput(PAPER_N, t.device_only) / 1e9:.2f}",
            ]
        )
    record(
        "ablation_topology",
        format_table(
            ["interconnect", "all-to-all ms", "cascade ms", "insert G ops/s"],
            rows,
            title="A9 — interconnect ablation, device-sided insert of 2^29 "
                  "pairs on 4 GPUs",
        ),
    )

    # the transposition step itself is several times faster over NVLink
    assert pcie.alltoall > 1.5 * nvlink.alltoall
    # and the end-to-end cascade meaningfully benefits
    assert pcie.device_only > 1.05 * nvlink.device_only