"""Three-way backend equivalence: ``fast`` ≡ ``ref`` ≡ ``compiled``.

The two-way checks live next door (``test_backend_equivalence.py`` for
engines, ``tests/core/test_equivalence.py`` for fast-vs-ref contents,
``tests/core/test_compiled_kernels.py`` for fast-vs-compiled bits).
This module closes the triangle: all three kernel backends must agree
on table contents and query/erase results, across group sizes, both
layouts, and tombstone-heavy churn — and the engines must report the
compiled backend they actually ran.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core.kernels_jit import compiled_available
from repro.core.table import WarpDriveHashTable
from repro.exec.engine import ShardKernelTask, create_engine
from repro.workloads import random_values, unique_keys

needs_provider = pytest.mark.skipif(
    not compiled_available(), reason="C kernel library unavailable"
)

BACKENDS = ("fast", "ref", "compiled")


def sorted_pairs(table):
    k, v = table.export()
    order = np.argsort(k)
    return k[order].tobytes(), v[order].tobytes()


def churn(kernels: str, *, n=180, group_size=4, layout="aos", seed=51):
    """insert → query(hit+miss) → erase → reinsert, contents snapshot.

    The ref kernels replay every operation through the SIMT scheduler, so
    the workload stays small; contents (not probe traffic) are the
    three-way invariant — ref charges faithful per-step traffic that the
    bulk backends batch differently.
    """
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    probe = np.concatenate([keys, unique_keys(n // 2 or 1, seed=seed + 2)])
    table = WarpDriveHashTable(
        max(32, int(n / 0.7)), group_size=group_size, layout=layout
    )
    try:
        table.insert(keys, values, kernels=kernels)
        qvals, qfound = table.query(probe, kernels=kernels)
        erased = table.erase(keys[: n // 2], kernels=kernels)
        table.insert(keys[: n // 2], values[: n // 2] + 1, kernels=kernels)
        return {
            "pairs": sorted_pairs(table),
            "query": (qvals.tobytes(), qfound.tobytes()),
            "erased": erased.tobytes(),
            "size": len(table),
        }
    finally:
        table.free()


@needs_provider
class TestThreeWay:
    @pytest.mark.parametrize("group_size", [1, 4, 32])
    def test_group_sizes(self, group_size):
        snaps = [churn(k, group_size=group_size) for k in BACKENDS]
        assert snaps[0] == snaps[1] == snaps[2]

    @pytest.mark.parametrize("layout", ["aos", "soa", "compact"])
    def test_layouts(self, layout):
        snaps = [churn(k, layout=layout) for k in BACKENDS]
        assert snaps[0] == snaps[1] == snaps[2]

    @examples(10)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=150),
        group_size=st.sampled_from([1, 4, 32]),
    )
    def test_random_workloads(self, seed, n, group_size):
        snaps = [
            churn(k, n=n, group_size=group_size, seed=seed) for k in BACKENDS
        ]
        assert snaps[0] == snaps[1] == snaps[2]


@needs_provider
class TestEngineDispatch:
    """The engines run the compiled kernels and say so in the result."""

    def _run(self, engine: str, kernels: str):
        keys = unique_keys(3000, seed=61)
        values = random_values(3000, seed=62)
        with create_engine(engine, workers=2) as eng:
            table = WarpDriveHashTable(4096, group_size=4)
            try:
                res = eng.run(
                    [
                        ShardKernelTask(
                            shard=0,
                            op="insert",
                            slots=table.slots,
                            seq=table.seq,
                            keys=keys,
                            values=values,
                            kernels=kernels,
                        )
                    ]
                )[0]
                return {
                    "slots": np.asarray(table.slots).tobytes(),
                    "status": res.status.tobytes(),
                    "report": (
                        res.report.num_ops,
                        res.report.load_sectors,
                        res.report.store_sectors,
                        res.report.cas_attempts,
                        res.report.failed,
                        res.report.probe_windows.tobytes(),
                    ),
                    "kernels": res.kernels,
                }
            finally:
                table.free()

    @pytest.mark.parametrize("engine", ["serial", "thread"])
    def test_compiled_matches_fast_and_is_recorded(self, engine):
        fast = self._run(engine, "fast")
        compiled = self._run(engine, "compiled")
        assert compiled.pop("kernels") == "compiled"
        assert fast.pop("kernels") == "fast"
        assert fast == compiled
