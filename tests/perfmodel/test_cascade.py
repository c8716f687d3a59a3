"""Tests for distributed cascade timing."""

import pytest

from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.perfmodel import calibration as cal
from repro.perfmodel.cascade import time_cascade
from repro.workloads.distributions import random_values, unique_keys


@pytest.fixture(scope="module")
def cascade():
    node = p100_nvlink_node(4)
    n = 1 << 13
    table = DistributedHashTable.for_load_factor(node, n, 0.9, group_size=4)
    keys = unique_keys(n, seed=1)
    ins = table.insert(keys, random_values(n, seed=2), source="host")
    _, _, qry = table.query(keys, source="host")
    return node, table, ins, qry


class TestPhases:
    def test_all_phases_positive_for_host_insert(self, cascade):
        node, table, ins, _ = cascade
        t = time_cascade(ins, table, node)
        assert t.h2d > 0 and t.multisplit > 0 and t.alltoall > 0 and t.kernel > 0
        assert t.reverse == 0 and t.d2h == 0  # inserts have no return leg

    def test_query_has_reverse_and_d2h(self, cascade):
        node, table, _, qry = cascade
        t = time_cascade(qry, table, node)
        assert t.reverse > 0 and t.d2h > 0

    def test_total_is_phase_sum(self, cascade):
        node, table, ins, _ = cascade
        t = time_cascade(ins, table, node)
        assert t.total == pytest.approx(
            t.h2d + t.multisplit + t.alltoall + t.kernel + t.reverse + t.d2h
        )
        assert t.device_only == pytest.approx(
            t.multisplit + t.alltoall + t.kernel + t.reverse
        )

    def test_host_retrieve_slower_than_insert(self, cascade):
        """§V-C: 'Host-sided insertions are faster than queries since the
        retrieval cascade involves an additional PCIe transfer.'"""
        node, table, ins, qry = cascade
        assert time_cascade(qry, table, node).total > time_cascade(
            ins, table, node
        ).total


class TestScaleProjection:
    def test_scale_multiplies_linear_phases(self, cascade):
        node, table, ins, _ = cascade
        t1 = time_cascade(ins, table, node)
        t2 = time_cascade(ins, table, node, scale=10.0)
        assert t2.h2d == pytest.approx(10 * t1.h2d)
        assert t2.alltoall == pytest.approx(10 * t1.alltoall)
        # kernel keeps its launch constant: slightly less than 10x
        assert t2.kernel < 10 * t1.kernel
        assert t2.kernel > 9 * (t1.kernel - cal.KERNEL_LAUNCH_SECONDS)

    def test_shard_bytes_override_degrades_insert(self, cascade):
        node, table, ins, _ = cascade
        base = time_cascade(ins, table, node).kernel
        degraded = time_cascade(
            ins, table, node, shard_table_bytes=10 << 30
        ).kernel
        assert degraded > base

    def test_invalid_scale(self, cascade):
        node, table, ins, _ = cascade
        with pytest.raises(ValueError):
            time_cascade(ins, table, node, scale=-1.0)
