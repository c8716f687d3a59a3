"""Property tests: the hierarchical (cluster) topology layer.

Three guarantees, per the scale-out design:

* a one-node cluster is *bit-identical* to the flat node it wraps —
  outputs, table state, transfer logs, and every charged byte/second —
  across insert/query/erase workloads with growth and tombstone churn;
* the fused two-level multisplit agrees with the composed single-level
  reference (per-GPU fields unchanged, node counts/offsets the sums of
  the member-GPU spans);
* the NIC charge model matches hand-computed traffic matrices, and the
  unified ``topology=`` factory vocabulary resolves and rejects specs
  the documented way.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core.growth import GrowthPolicy
from repro.errors import ConfigurationError, TopologyError
from repro.hashing.partition import hashed_partition
from repro.memory.layout import pack_pairs
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.multisplit import (
    multisplit_fast,
    multisplit_two_level,
)
from repro.multigpu.topology import (
    DEFAULT_NIC_BANDWIDTH,
    ClusterTopology,
    NodeTopology,
    Topology,
    TopologySpec,
    p100_nvlink_node,
    pcie_only_node,
    topology,
)
from repro.obs import runtime as obs
from repro.obs.export import to_perfetto, validate_trace
from repro.workloads.distributions import random_values, unique_keys

WALL_KEYS = (
    "kernel_wall_seconds",
    "distribution_wall_seconds",
    "grow_wall_seconds",
    "kernel_spans",
)


def report_fingerprint(report):
    """Everything deterministic in a CascadeReport (wall clocks dropped)."""
    d = report.to_dict()
    for key in WALL_KEYS:
        d.pop(key, None)
    return d


def run_workload(topo, n, seed, *, churn):
    """Insert (with growth) + optional erase/reinsert churn + query."""
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    table = DistributedHashTable(
        max(16, n // 2),
        topology=topo,
        growth=GrowthPolicy(max_load=0.8),
    )
    try:
        reports = [table.insert(keys, values, source="host")]
        if churn:
            erased, erep = table.erase(keys[: n // 3])
            reports.append(erep)
            # reinsert over the tombstones
            reports.append(
                table.insert(
                    keys[: n // 3], values[: n // 3] + 1, source="device"
                )
            )
        got, found, qrep = table.query(keys, source="host")
        reports.append(qrep)
        ks, vs = table.export()
        order = np.argsort(ks, kind="stable")
        state = (len(table), ks[order].tobytes(), vs[order].tobytes())
        outputs = (got.tobytes(), found.tobytes())
        if churn:
            outputs += (erased.tobytes(),)
        log = tuple(
            (r.kind.name, r.src_device, r.dst_device, r.nbytes, r.tag)
            for r in table.transfer_log.records
        )
        grows = tuple(s.grows for s in table.shards)
    finally:
        table.free()
    return {
        "state": state,
        "outputs": outputs,
        "reports": [report_fingerprint(r) for r in reports],
        "log": log,
        "grows": grows,
    }


class TestOneNodeClusterBitIdentity:
    """cluster(1x4) == flat m=4, everything included, property-tested."""

    @given(
        n=st.integers(min_value=8, max_value=400),
        seed=st.integers(min_value=0, max_value=10_000),
        churn=st.booleans(),
    )
    @examples(25)
    def test_flat_vs_one_node_cluster(self, n, seed, churn):
        flat = run_workload(p100_nvlink_node(4), n, seed, churn=churn)
        clustered = run_workload(topology("cluster:1x4"), n, seed, churn=churn)
        assert clustered == flat

    @given(
        m=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @examples(10)
    def test_any_width_one_node_cluster(self, m, seed):
        flat = run_workload(p100_nvlink_node(m), 120, seed, churn=True)
        spec = TopologySpec(preset="p100", gpus_per_node=m, force_cluster=True)
        clustered = run_workload(spec.build(), 120, seed, churn=True)
        assert clustered == flat

    def test_one_node_cluster_charges_nothing_to_the_nic(self):
        result = run_workload(topology("cluster:1x4"), 300, 7, churn=True)
        for rep in result["reports"]:
            assert rep["alltoall_inter_bytes"] == 0
            assert rep["alltoall_inter_seconds"] == 0.0
            assert rep["alltoall_intra_bytes"] == rep["alltoall_bytes"]

    def test_two_node_cluster_same_state_nic_charged(self):
        """2x2 reaches the identical table state (node-major global ids
        keep the shard assignment) but routes bytes over the NIC."""
        flat = run_workload(p100_nvlink_node(4), 300, 7, churn=True)
        two = run_workload(topology("cluster:2x2"), 300, 7, churn=True)
        assert two["state"] == flat["state"]
        assert two["outputs"] == flat["outputs"]
        insert_rep = two["reports"][0]
        assert insert_rep["num_nodes"] == 2
        assert insert_rep["alltoall_inter_bytes"] > 0
        assert (
            insert_rep["alltoall_intra_bytes"]
            + insert_rep["alltoall_inter_bytes"]
            == insert_rep["alltoall_bytes"]
        )

    def test_two_node_cluster_traces_both_exchange_levels(self):
        """A traced 2x2 insert+query records the intra- and inter-node
        transpose levels, and the session exports a valid trace."""
        keys = unique_keys(2000, seed=41)
        table = DistributedHashTable(4096, topology="cluster:2x2")
        try:
            with obs.session() as (recorder, metrics):
                table.insert(keys, random_values(2000, seed=42))
                table.query(keys)
        finally:
            table.free()
        names = [s.name for s in recorder.spans]
        # one of each level per cascade: insert and query
        assert names.count("transpose.intra") == 2
        assert names.count("transpose.inter") == 2
        assert validate_trace(to_perfetto(recorder, metrics)) == []


class TestTwoLevelMultisplit:
    """Fused two-level split vs the composed single-level reference."""

    @given(
        n=st.integers(min_value=0, max_value=400),
        shape=st.sampled_from([(1, 4), (2, 2), (2, 4), (4, 2), (4, 4)]),
        group_size=st.sampled_from([1, 4, 32]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @examples(50)
    def test_counts_offsets_match_composed_reference(
        self, n, shape, group_size, seed
    ):
        num_nodes, gpus = shape
        m = num_nodes * gpus
        if n:
            keys = unique_keys(n, seed=seed)
            values = random_values(n, seed=seed + 1)
        else:
            keys = np.array([], dtype=np.uint32)
            values = np.array([], dtype=np.uint32)
        pairs = pack_pairs(keys, values)
        partition = hashed_partition(m)
        spans = [(i * gpus, (i + 1) * gpus) for i in range(num_nodes)]

        flat = multisplit_fast(pairs, partition, group_size=group_size)
        two = multisplit_two_level(
            pairs, partition, spans, group_size=group_size
        )

        # GPU level: bit-identical to the flat fused split
        assert (two.pairs == flat.pairs).all()
        assert (two.counts == flat.counts).all()
        assert (two.offsets == flat.offsets).all()
        assert (two.source_index == flat.source_index).all()
        assert two.report.load_sectors == flat.report.load_sectors
        assert two.report.store_sectors == flat.report.store_sectors

        # node level: sums of the member-GPU spans, exclusive-scanned
        expected_counts = np.array(
            [int(flat.counts[lo:hi].sum()) for lo, hi in spans], dtype=np.int64
        )
        assert (two.node_counts == expected_counts).all()
        assert (
            two.node_offsets
            == np.concatenate(([0], np.cumsum(expected_counts)[:-1]))
        ).all()
        assert two.num_nodes == num_nodes

        # node_part(k) is the contiguous run covering that node's GPUs
        for k, (lo, hi) in enumerate(spans):
            part = two.node_part(k)
            start = int(flat.offsets[lo])
            assert (part == flat.pairs[start : start + expected_counts[k]]).all()

    def test_bad_spans_rejected(self):
        pairs = pack_pairs(unique_keys(16, seed=1), random_values(16, seed=2))
        partition = hashed_partition(4)
        for spans in ([(0, 2), (3, 4)], [(0, 2)], [(2, 4), (0, 2)], []):
            with pytest.raises((ConfigurationError, TopologyError)):
                multisplit_two_level(pairs, partition, spans)


class TestNicCharging:
    """traffic_breakdown vs hand-computed matrices."""

    def make_cluster(self, num_nodes=2, gpus=2, **overrides):
        return topology(f"cluster:{num_nodes}x{gpus}", **overrides)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.sampled_from([(2, 2), (2, 4), (3, 2), (4, 4)]),
    )
    @examples(40)
    def test_breakdown_bytes_match_hand_sums(self, seed, shape):
        num_nodes, gpus = shape
        topo = self.make_cluster(num_nodes, gpus)
        m = topo.num_devices
        rng = np.random.default_rng(seed)
        traffic = rng.integers(0, 1 << 16, size=(m, m)).astype(np.int64)
        np.fill_diagonal(traffic, 0)

        b = topo.traffic_breakdown(traffic)
        intra = 0
        inter = 0
        for src in range(m):
            for dst in range(m):
                if src == dst:
                    continue
                if topo.node_of(src) == topo.node_of(dst):
                    intra += int(traffic[src, dst])
                else:
                    inter += int(traffic[src, dst])
        assert b.intra_bytes == intra
        assert b.inter_bytes == inter
        assert b.total_bytes == intra + inter

        # node matrix agrees with the same hand partition
        node_traffic = topo.node_traffic_matrix(traffic)
        assert int(node_traffic.sum()) == inter

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @examples(40)
    def test_inter_seconds_match_hand_formula(self, seed):
        topo = self.make_cluster(2, 2, nic_bandwidth=5e9, nic_latency=2e-6)
        m = topo.num_devices
        rng = np.random.default_rng(seed)
        traffic = rng.integers(1, 1 << 20, size=(m, m)).astype(np.int64)
        np.fill_diagonal(traffic, 0)

        b = topo.traffic_breakdown(traffic)
        node_traffic = topo.node_traffic_matrix(traffic)
        egress = node_traffic.sum(axis=1)
        ingress = node_traffic.sum(axis=0)
        bottleneck = max(
            max(float(egress[k]), float(ingress[k]))
            for k in range(topo.num_nodes)
        )
        assert b.inter_seconds == pytest.approx(2e-6 + bottleneck / 5e9)
        # the two levels overlap: the breakdown reports the slower one
        assert b.seconds == max(b.intra_seconds, b.inter_seconds)
        assert topo.alltoall_time(traffic) == b.seconds

    def test_intra_level_is_the_slowest_member_node(self):
        topo = self.make_cluster(2, 2)
        m = topo.num_devices
        traffic = np.zeros((m, m), dtype=np.int64)
        traffic[0, 1] = 4096  # node 0 internal
        traffic[2, 3] = 1 << 20  # node 1 internal, much heavier
        b = topo.traffic_breakdown(traffic)
        assert b.inter_bytes == 0 and b.inter_seconds == 0.0
        expected = max(
            node.alltoall_time(traffic[lo:hi, lo:hi])
            for node, (lo, hi) in zip(topo.nodes, topo.node_spans())
        )
        assert b.intra_seconds == pytest.approx(expected)

    def test_zero_traffic_has_no_latency_charge(self):
        topo = self.make_cluster(2, 2)
        b = topo.traffic_breakdown(np.zeros((4, 4), dtype=np.int64))
        assert b.inter_seconds == 0.0 and b.intra_seconds == 0.0

    def test_flat_breakdown_matches_alltoall_time(self):
        node = p100_nvlink_node(4)
        traffic = np.full((4, 4), 1 << 14, dtype=np.int64)
        np.fill_diagonal(traffic, 0)
        b = node.traffic_breakdown(traffic)
        assert b.inter_bytes == 0
        assert b.seconds == node.alltoall_time(traffic)
        assert b.intra_bytes == int(traffic.sum())


class TestTopologyFactory:
    """The unified ``topology=`` spec grammar and option shims."""

    def test_spec_strings(self):
        assert isinstance(topology("p100"), NodeTopology)
        assert topology("p100:8").num_devices == 8
        assert topology("pcie:2").num_devices == 2
        assert topology("dgx1v").num_devices == 8
        cluster = topology("cluster:2x4")
        assert isinstance(cluster, ClusterTopology)
        assert cluster.num_nodes == 2 and cluster.num_devices == 8
        one = topology("cluster:1x4")
        assert isinstance(one, ClusterTopology)  # explicit cluster stays one
        assert isinstance(topology(None), NodeTopology)

    def test_spec_dataclass_and_overrides(self):
        spec = TopologySpec(preset="pcie", gpus_per_node=2, num_nodes=3)
        topo = topology(spec)
        assert topo.num_nodes == 3 and topo.num_devices == 6
        fat = topology("cluster:2x2", nic_bandwidth=99e9)
        assert fat.nic_bandwidth == 99e9
        assert topology("cluster:2x2").nic_bandwidth == DEFAULT_NIC_BANDWIDTH

    def test_bad_specs_rejected(self):
        for bad in ("v100", "cluster:2", "cluster:ax4", "p100:x", "", "p100:0"):
            with pytest.raises(ConfigurationError):
                topology(bad)
        with pytest.raises(ConfigurationError):
            topology(42)

    def test_instance_passthrough_rejects_overrides(self):
        node = pcie_only_node(2)
        assert topology(node) is node
        with pytest.raises(ConfigurationError):
            topology(node, nic_bandwidth=1e9)

    def test_protocol_runtime_checkable(self):
        assert isinstance(p100_nvlink_node(4), Topology)
        assert isinstance(topology("cluster:2x2"), Topology)

    def test_table_topology_keyword(self):
        table = DistributedHashTable(128, topology="cluster:2x2")
        try:
            assert table.topology.num_nodes == 2
            assert table.num_gpus == 4
        finally:
            table.free()

    def test_table_positional_topology_rejected(self):
        node = p100_nvlink_node(2)
        with pytest.raises(ConfigurationError, match="topology="):
            DistributedHashTable(node)
        with pytest.raises(TypeError):
            DistributedHashTable(node, 128)

    def test_table_conflicting_topologies_rejected(self):
        node = p100_nvlink_node(2)
        with pytest.raises(TypeError):
            DistributedHashTable(node, 128, topology="p100:4")
        with pytest.raises(ConfigurationError):
            DistributedHashTable(topology="p100:2")  # capacity still required

    def test_driver_builds_and_owns_its_table(self):
        from repro.pipeline.driver import AsyncCascadeDriver

        driver = AsyncCascadeDriver(
            total_capacity=256, topology="cluster:2x2"
        )
        assert driver.table.topology.num_nodes == 2
        driver.close()
        with pytest.raises(ConfigurationError):
            AsyncCascadeDriver()  # neither table nor capacity
        table = DistributedHashTable(128, topology="p100:2")
        try:
            with pytest.raises(ConfigurationError):
                AsyncCascadeDriver(table, topology="p100:2")
            with pytest.raises(ConfigurationError):
                AsyncCascadeDriver(table, total_capacity=128)
        finally:
            table.free()
