"""Modelled scale-out benches: cluster cascades at fixed total keys.

Strong-scaling sweep of the hierarchical cascade: the same keyspace is
inserted and queried through ``cluster:Nx<g>`` topologies (see
:mod:`repro.multigpu.topology`) and each cascade is priced with
:func:`repro.perfmodel.time_cascade`, so the rows read off how much of
the node-local NVLink win survives once the all-to-all has to cross a
NIC.  A second sweep holds the cluster shape fixed and varies the NIC
bandwidth — the sensitivity rows that show when the inter-node level
(``alltoall_inter_seconds``) overtakes the intra-node one.

``benchmarks/bench_cluster.py`` writes the rows to ``BENCH_cluster.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..multigpu.distributed_table import DistributedHashTable
from ..multigpu.topology import DEFAULT_NIC_BANDWIDTH, TopologySpec
from ..obs.protocol import reportable_dict
from ..perfmodel.cascade import time_cascade
from ..workloads import random_values, unique_keys

__all__ = [
    "ClusterScaleRecord",
    "run_cluster_suite",
    "format_cluster_records",
    "cluster_scaling_efficiency",
]

#: NIC bandwidths (bytes/s) for the sensitivity sweep: a 25 Gb/s
#: ethernet-class link, the EDR-IB default, and a 400 Gb/s NDR link.
NIC_SENSITIVITY_BANDWIDTHS = (
    DEFAULT_NIC_BANDWIDTH / 4,
    DEFAULT_NIC_BANDWIDTH,
    DEFAULT_NIC_BANDWIDTH * 4,
)


@dataclass
class ClusterScaleRecord:
    """One modelled cluster cascade (the ``BENCH_cluster.json`` row
    schema)."""

    bench: str  # cluster_insert | cluster_query | cluster_nic
    n: int  # total keys — fixed across the node sweep
    num_nodes: int
    gpus_per_node: int
    m: int  # total GPUs = num_nodes * gpus_per_node
    nic_bandwidth: float  # bytes/s
    seconds: float  # modelled device-sided cascade wall time
    ops_per_s: float
    alltoall_intra_seconds: float
    alltoall_inter_seconds: float
    alltoall_inter_bytes: int

    #: 2: the host ``cpus`` stamp is gone — every field is modelled
    schema_version = 2

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys)."""
        return reportable_dict(
            self,
            {
                "bench": self.bench,
                "n": self.n,
                "num_nodes": self.num_nodes,
                "gpus_per_node": self.gpus_per_node,
                "m": self.m,
                "nic_bandwidth": self.nic_bandwidth,
                "seconds": self.seconds,
                "ops_per_s": self.ops_per_s,
                "alltoall_intra_seconds": self.alltoall_intra_seconds,
                "alltoall_inter_seconds": self.alltoall_inter_seconds,
                "alltoall_inter_bytes": self.alltoall_inter_bytes,
            },
        )


def _run_shape(
    bench_prefix: str,
    n: int,
    num_nodes: int,
    gpus_per_node: int,
    nic_bandwidth: float,
    *,
    seed: int,
    group_size: int,
    ops: tuple[str, ...] = ("insert", "query"),
) -> list[ClusterScaleRecord]:
    """Insert + query the fixed keyspace through one cluster shape."""
    spec = TopologySpec(
        preset="p100",
        gpus_per_node=gpus_per_node,
        num_nodes=num_nodes,
        nic_bandwidth=nic_bandwidth,
        force_cluster=num_nodes > 1,
    )
    topology = spec.build()
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    table = DistributedHashTable.for_workload(
        topology, keys, 0.95, group_size=group_size
    )
    records: list[ClusterScaleRecord] = []
    try:
        reports = {}
        reports["insert"] = table.insert(keys, values, source="device")
        if "query" in ops:
            _, found, qreport = table.query(keys, source="device")
            if not bool(found.all()):
                raise AssertionError(
                    f"cluster {num_nodes}x{gpus_per_node}: inserted keys "
                    "went missing — bench aborted"
                )
            reports["query"] = qreport
        for op in ops:
            report = reports[op]
            timing = time_cascade(report, table, topology)
            seconds = timing.device_only
            records.append(
                ClusterScaleRecord(
                    bench=f"{bench_prefix}{op}",
                    n=n,
                    num_nodes=num_nodes,
                    gpus_per_node=gpus_per_node,
                    m=topology.num_devices,
                    nic_bandwidth=nic_bandwidth,
                    seconds=seconds,
                    ops_per_s=n / seconds if seconds > 0 else 0.0,
                    alltoall_intra_seconds=report.alltoall_intra_seconds,
                    alltoall_inter_seconds=report.alltoall_inter_seconds,
                    alltoall_inter_bytes=report.alltoall_inter_bytes,
                )
            )
    finally:
        table.free()
    return records


def run_cluster_suite(
    n: int = 1 << 17,
    *,
    gpus_per_node: int = 4,
    node_counts: tuple[int, ...] = (1, 2, 4),
    nic_bandwidths: tuple[float, ...] = NIC_SENSITIVITY_BANDWIDTHS,
    seed: int = 11,
    group_size: int = 4,
) -> list[ClusterScaleRecord]:
    """Strong-scaling node sweep plus a NIC-bandwidth sensitivity sweep.

    Every shape ingests the *same* ``n`` keys (fixed total work — the
    paper's Fig. 9 discipline), so ``ops_per_s`` across ``node_counts``
    is the strong-scaling curve.  The sensitivity rows re-run the
    largest shape at each bandwidth in ``nic_bandwidths``.
    """
    if not node_counts:
        raise ConfigurationError("node_counts must be non-empty")
    if any(c < 1 for c in node_counts):
        raise ConfigurationError(f"node_counts must be >= 1, got {node_counts}")
    records: list[ClusterScaleRecord] = []
    for num_nodes in node_counts:
        records.extend(
            _run_shape(
                "cluster_",
                n,
                num_nodes,
                gpus_per_node,
                DEFAULT_NIC_BANDWIDTH,
                seed=seed,
                group_size=group_size,
            )
        )
    largest = max(node_counts)
    if largest > 1:
        for bw in nic_bandwidths:
            if bw == DEFAULT_NIC_BANDWIDTH:
                continue  # already covered by the scaling sweep
            records.extend(
                _run_shape(
                    "cluster_nic_",
                    n,
                    largest,
                    gpus_per_node,
                    bw,
                    seed=seed,
                    group_size=group_size,
                    ops=("insert",),
                )
            )
    return records


def cluster_scaling_efficiency(
    records: list[ClusterScaleRecord], op: str = "insert"
) -> float:
    """Largest-shape throughput relative to perfect scaling from 1 node.

    1.0 means the NIC is free; realistic NICs land well below the
    node-local curve and this ratio quantifies the gap (0.0 if the sweep
    is missing either endpoint).
    """
    rows = {
        r.num_nodes: r
        for r in records
        if r.bench == f"cluster_{op}" and r.nic_bandwidth == DEFAULT_NIC_BANDWIDTH
    }
    if len(rows) < 2:
        return 0.0
    base = rows[min(rows)]
    peak = rows[max(rows)]
    perfect = base.ops_per_s * (peak.num_nodes / base.num_nodes)
    return peak.ops_per_s / perfect if perfect > 0 else 0.0


def format_cluster_records(records: list[ClusterScaleRecord]) -> str:
    """Fixed-width table: one row per shape, with the inter-node share."""
    lines = [
        f"{'bench':<20} {'n':>9} {'nodes':>5} {'gpus':>4} "
        f"{'NIC GB/s':>8} {'seconds':>10} {'Mops/s':>8} {'inter %':>7}"
    ]
    for r in records:
        alltoall = max(r.alltoall_intra_seconds, r.alltoall_inter_seconds)
        share = (
            r.alltoall_inter_seconds / alltoall * 100 if alltoall > 0 else 0.0
        )
        lines.append(
            f"{r.bench:<20} {r.n:>9} {r.num_nodes:>5} {r.m:>4} "
            f"{r.nic_bandwidth / 1e9:>8.2f} {r.seconds:>10.6f} "
            f"{r.ops_per_s / 1e6:>8.1f} {share:>6.1f}%"
        )
    return "\n".join(lines)
