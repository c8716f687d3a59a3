"""A7 — beyond the paper: WarpDrive's design on an 8-GPU DGX-1V.

The paper's conclusion asks how the distribution scheme scales past its
4×P100 testbed.  We run the identical cascades on a modelled DGX-1V —
eight V100s on the hybrid cube-mesh, which is *not* fully connected, so
the all-to-all transposition pays two-hop relays for diagonal pairs.

Expected shape: efficiency drops again from m = 4 to m = 8 (relayed
all-to-all traffic), but the aggregate insert rate keeps growing —
sharding remains worthwhile on the bigger node.
"""

from conftest import record

from repro.core.table import WarpDriveHashTable
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import dgx1v_node
from repro.perfmodel.cascade import time_cascade
from repro.perfmodel.memmodel import projected_seconds, throughput
from repro.perfmodel.specs import V100
from repro.utils.tables import format_table
from repro.workloads.distributions import make_distribution, random_values

N_SIM = 1 << 14
PAPER_N = 1 << 29
LOAD = 0.95


def _cascade_seconds(m: int, keys, values) -> float:
    scale = PAPER_N / N_SIM
    if m == 1:
        table = WarpDriveHashTable.for_load_factor(N_SIM, LOAD, group_size=4)
        rep = table.insert(keys, values)
        return projected_seconds(rep, V100, scale=scale)
    node = dgx1v_node()
    # use the first m GPUs of the mesh by restricting the partition
    from repro.multigpu.topology import NodeTopology
    import networkx as nx

    sub = NodeTopology(
        devices=node.devices[:m],
        nvlink=nx.MultiGraph(node.nvlink.subgraph(range(m))),
        pcie_switch_of={g: node.pcie_switch_of[g] for g in range(m)},
        pcie_switch_bandwidth=node.pcie_switch_bandwidth,
    )
    table = DistributedHashTable.for_workload(sub, keys, LOAD, group_size=4)
    rep = table.insert(keys, values, source="device")
    timing = time_cascade(rep, table, sub, scale=scale)
    table.free()
    return timing.device_only


def test_dgx1v_scaling(benchmark):
    def run():
        keys = make_distribution("unique", N_SIM, seed=51)
        values = random_values(N_SIM, seed=52)
        out = []
        tau1 = None
        for m in (1, 2, 4, 8):
            secs = _cascade_seconds(m, keys, values)
            if tau1 is None:
                tau1 = secs
            out.append(
                (m, secs, tau1 / (m * secs), throughput(PAPER_N, secs))
            )
        return out

    series = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = [
        [m, f"{s * 1e3:.2f}", f"{eff:.3f}", f"{rate / 1e9:.2f}"]
        for m, s, eff, rate in series
    ]
    record(
        "extension_dgx1v",
        format_table(
            ["GPUs", "insert ms (2^29 pairs)", "E_s", "G ops/s"],
            rows,
            title="A7 — beyond the paper: device-sided insert on a DGX-1V "
                  "(8x V100, hybrid cube-mesh)",
        ),
    )

    rates = [rate for _, _, _, rate in series]
    effs = [eff for _, _, eff, _ in series]
    # aggregate throughput keeps growing to 8 GPUs...
    assert rates[-1] > rates[-2] > rates[0]
    # ...but the relayed all-to-all costs efficiency at m = 8
    assert effs[-1] < effs[1]
