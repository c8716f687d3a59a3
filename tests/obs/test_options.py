"""The unified option vocabulary; the retired spellings are rejected."""

import numpy as np
import pytest

from repro.core.counting import CountingHashTable
from repro.core.multivalue import MultiValueHashTable
from repro.core.partitioned import PartitionedWarpDriveTable
from repro.core.table import WarpDriveHashTable
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.pipeline.driver import AsyncCascadeDriver
from repro.workloads.distributions import unique_keys

KEYS = np.arange(4, dtype=np.uint32)

#: every spelling the removed warn-once shims used to translate:
#: ``executor=`` (now ``engine=`` on constructors, ``kernels=`` on bulk
#: methods), ``wall_clock=`` (now ``measure=``), and the positional
#: topology of ``DistributedHashTable`` (now ``topology=``); plus the
#: single-table storage hints ``engine=``/``shared=``, which only chose
#: the shared-memory slot backing of the retired process engine
RETIRED_SPELLINGS = {
    "table_engine": lambda: WarpDriveHashTable(64, engine="serial"),
    "table_shared": lambda: WarpDriveHashTable(64, shared=True),
    "table_insert_executor": lambda: WarpDriveHashTable(64).insert(
        KEYS, KEYS, executor="fast"
    ),
    "table_query_executor": lambda: WarpDriveHashTable(64).query(
        KEYS, executor="fast"
    ),
    "table_erase_executor": lambda: WarpDriveHashTable(64).erase(
        KEYS, executor="fast"
    ),
    "counting_executor": lambda: CountingHashTable(64, executor="serial"),
    "counting_add_executor": lambda: CountingHashTable(64).add(
        KEYS, executor="fast"
    ),
    "multivalue_executor": lambda: MultiValueHashTable(64, executor="serial"),
    "multivalue_insert_executor": lambda: MultiValueHashTable(64).insert(
        KEYS, KEYS, executor="fast"
    ),
    "partitioned_executor": lambda: PartitionedWarpDriveTable(
        256, executor="serial"
    ),
    "distributed_executor": lambda: DistributedHashTable(
        256, topology="p100:2", executor="serial"
    ),
    "distributed_positional_topology": lambda: DistributedHashTable(
        p100_nvlink_node(2), 256
    ),
    "driver_wall_clock": lambda: AsyncCascadeDriver(
        total_capacity=256, topology="p100:2", wall_clock=True
    ),
}


class TestShims:
    """The warn-once shims are gone: old spellings fail like any unknown
    keyword, with no deprecation path left to hide a caller bug."""

    @pytest.mark.parametrize(
        "build",
        list(RETIRED_SPELLINGS.values()),
        ids=list(RETIRED_SPELLINGS),
    )
    def test_retired_spelling_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    def test_table_rejects_conflicting_spellings(self):
        t = WarpDriveHashTable(64)
        with pytest.raises(TypeError, match="executor"):
            t.insert(KEYS, KEYS, kernels="fast", executor="fast")

    def test_table_rejects_unknown_keyword(self):
        t = WarpDriveHashTable(64)
        with pytest.raises(TypeError):
            t.insert(KEYS, KEYS, bogus=1)

    def test_driver_rejects_conflicting_spellings(self):
        node = p100_nvlink_node(2)
        keys = unique_keys(200, seed=42)
        table = DistributedHashTable.for_workload(node, keys, 0.8)
        with pytest.raises(TypeError, match="wall_clock"):
            AsyncCascadeDriver(table, measure=True, wall_clock=True)
        table.free()


class TestTopLevelExports:
    def test_unified_entry_points(self):
        import repro

        for name in (
            "WarpDriveHashTable",
            "DistributedHashTable",
            "AsyncCascadeDriver",
            "StreamResult",
            "CascadeReport",
            "obs",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__
