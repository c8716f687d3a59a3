"""Micro-benchmarks of the simulator itself (wall-clock, pytest-benchmark).

Not a paper figure: these track the *reproduction's* own performance so
regressions in the vectorized executors show up.  They are the targets
pytest-benchmark actually times across rounds.
"""

import pytest

from repro.core.table import WarpDriveHashTable
from repro.baselines import CudppCuckooTable
from repro.multigpu import DistributedHashTable, p100_nvlink_node
from repro.workloads import random_values, unique_keys

N = 1 << 15
KEYS = unique_keys(N, seed=1)
VALUES = random_values(N, seed=2)


@pytest.mark.parametrize("g", [1, 4, 32])
def test_bulk_insert_speed(benchmark, g):
    def run():
        table = WarpDriveHashTable.for_load_factor(N, 0.9, group_size=g)
        table.insert(KEYS, VALUES)
        return table

    table = benchmark(run)
    assert len(table) == N


def test_bulk_query_speed(benchmark):
    table = WarpDriveHashTable.for_load_factor(N, 0.9, group_size=4)
    table.insert(KEYS, VALUES)

    def run():
        values, found = table.query(KEYS)
        return found

    found = benchmark(run)
    assert bool(found.all())


def test_cuckoo_insert_speed(benchmark):
    def run():
        table = CudppCuckooTable.for_load_factor(N, 0.9, seed=3)
        table.insert(KEYS, VALUES)
        return table

    table = benchmark(run)
    assert len(table) == N


def test_distributed_cascade_speed(benchmark):
    def run():
        node = p100_nvlink_node(4)
        table = DistributedHashTable.for_load_factor(node, N, 0.9)
        table.insert(KEYS, VALUES, source="host")
        return table

    table = benchmark(run)
    assert len(table) == N
