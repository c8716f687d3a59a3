"""Cross-layer properties of the compact quotient slot layout.

The contract (``docs/compact_layout.md``): ``layout="compact"`` is
*bit-exact* — every probing policy and kernel backend produces the same
slot words, answers, and per-op reports as ``aos``/``soa``, through
growth episodes and tombstone churn — while the *modelled* footprint
(``SlotStore.nbytes``, ``CascadeReport.table_bytes``, the perf-model
sector term) narrows once the quotient pins enough bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core.growth import GrowthPolicy
from repro.core.kernels_jit import compiled_available
from repro.core.store import STORE_LAYOUTS, make_store, slot_record_bytes
from repro.core.table import WarpDriveHashTable
from repro.errors import ConfigurationError
from repro.perfmodel.hashperf import (
    best_group_size,
    predicted_op_seconds,
    predicted_rate,
)
from repro.perfmodel.specs import P100
from repro.simt.counters import TransactionCounter
from repro.workloads.distributions import random_values, unique_keys

KERNELS = (
    "fast",
    "ref",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled_available(), reason="C kernel library unavailable"
        ),
    ),
)
PROBINGS = ("window", "double", "linear")


def churn_state(
    layout: str,
    kernels: str,
    probing: str,
    *,
    n: int = 600,
    capacity: int = 256,
    group_size: int = 4,
    seed: int = 5,
) -> tuple:
    """Full lifecycle fingerprint: grow-under-load, erase half,
    reinsert a quarter over the tombstones, then query everything."""
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    table = WarpDriveHashTable(
        capacity,
        group_size=group_size,
        layout=layout,
        probing=probing,
        growth=GrowthPolicy(max_load=0.8),
    )
    try:
        step = max(1, n // 4)
        for lo in range(0, n, step):
            table.insert(keys[lo : lo + step], values[lo : lo + step],
                         kernels=kernels)
        erased = table.erase(keys[: n // 2], kernels=kernels)
        table.insert(keys[: n // 4], values[: n // 4] + 7, kernels=kernels)
        got, found = table.query(keys, kernels=kernels)
        return (
            np.asarray(table.slots).tobytes(),
            table.capacity,
            len(table),
            got.tobytes(),
            found.tobytes(),
            erased.tobytes(),
            table.counter.snapshot(),
        )
    finally:
        table.free()


class TestChurnBitIdentity:
    """compact == aos == soa under growth + tombstone churn, for every
    probing policy and kernel backend (``compiled`` skips without the
    C kernel library)."""

    @pytest.mark.parametrize("kernels", KERNELS)
    @pytest.mark.parametrize("probing", PROBINGS)
    def test_layouts_agree(self, kernels, probing):
        n = 250 if kernels == "ref" else 600
        states = {
            lay: churn_state(lay, kernels, probing, n=n)
            for lay in STORE_LAYOUTS
        }
        assert states["compact"] == states["aos"] == states["soa"]

    @given(
        seed=st.integers(0, 2**31 - 1),
        group_size=st.sampled_from([1, 4, 32]),
        probing=st.sampled_from(PROBINGS),
    )
    @examples(12)
    def test_random_histories_agree(self, seed, group_size, probing):
        states = {
            lay: churn_state(
                lay, "fast", probing,
                n=300, group_size=group_size, seed=seed,
            )
            for lay in STORE_LAYOUTS
        }
        assert states["compact"] == states["aos"] == states["soa"]

    def test_grown_compact_equals_fresh_replay(self):
        """A compact table grown 256 → 2048 matches a fresh aos table at
        the final capacity fed the same history (growth keeps σ intact:
        rehash replays through packed words, not raw planes)."""
        grown = churn_state("compact", "fast", "window",
                            n=1400, capacity=256)
        assert grown[1] >= 2048  # growth actually happened
        fresh = churn_state("aos", "fast", "window",
                            n=1400, capacity=grown[1])
        # same final capacity -> identical slot words and answers
        assert grown[:6] == fresh[:6]


class TestModelledFootprint:
    """The narrower record is visible to everything that charges bytes."""

    def test_sector_counts_identical_below_crossover(self):
        """Under 2^16 slots the compact record still rounds to 8 B, so
        even the transaction counters must agree exactly."""
        a = churn_state("aos", "fast", "window", capacity=1 << 10)
        c = churn_state("compact", "fast", "window", capacity=1 << 10)
        assert c == a

    def test_wide_groups_load_fewer_sectors_past_crossover(self):
        """g=32 at 2^16 slots: a probe window spans 224 modelled bytes
        (7 sectors) on compact vs 256 (8 sectors) on aos."""
        from repro.core.bulk import bulk_insert, bulk_query
        from repro.core.probing import WindowSequence
        from repro.hashing.families import make_double_family

        capacity = 1 << 16
        assert slot_record_bytes("compact", capacity) == 7
        keys = unique_keys(2000, seed=3)
        values = random_values(2000, seed=4)
        loads = {}
        for lay in ("aos", "compact"):
            store = make_store(capacity, layout=lay)
            seq = WindowSequence(make_double_family(translation=5), 32,
                                 capacity)
            counter = TransactionCounter()
            bulk_insert(store.view, seq, keys, values, counter)
            bulk_query(store.view, seq, keys, counter)
            loads[lay] = counter.load_sectors
        assert loads["compact"] < loads["aos"]

    def test_perfmodel_accepts_record_bytes(self):
        for g in (8, 16, 32):
            narrow = predicted_op_seconds(0.6, g, P100, record_bytes=5)
            wide = predicted_op_seconds(0.6, g, P100, record_bytes=8)
            assert 0 < narrow <= wide
            assert predicted_rate(0.6, g, P100, record_bytes=5) >= \
                predicted_rate(0.6, g, P100, record_bytes=8)
        assert best_group_size(0.6, P100, record_bytes=5) >= 1

    def test_perfmodel_rejects_illegal_record_bytes(self):
        for bad in (0, 9, -1):
            with pytest.raises(ConfigurationError):
                predicted_op_seconds(0.6, 8, P100, record_bytes=bad)

    def test_table_exposes_narrow_nbytes(self):
        capacity = 1 << 16
        aos = WarpDriveHashTable(capacity, layout="aos")
        compact = WarpDriveHashTable(capacity, layout="compact")
        try:
            assert compact.store.record_bytes == 7
            assert aos.store.nbytes == capacity * 8
            assert compact.store.nbytes == capacity * 7
        finally:
            aos.free()
            compact.free()
