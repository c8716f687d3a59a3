"""Bit-identity of the compiled bulk kernels against the fast ones.

``kernels="compiled"`` runs the C kernel library; the contract is that
final slot contents, statuses, probe-window arrays, every
:class:`~repro.core.report.KernelReport` field, and the merged
transaction-counter snapshots must be **bit-identical** to the
vectorized ``"fast"`` kernels — across group sizes, layouts, probing
policies, tombstone-heavy churn, and growth episodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core import _jit_cc
from repro.core.growth import GrowthPolicy
from repro.core.kernels_jit import compiled_available, slot_planes, warm
from repro.core.table import WarpDriveHashTable
from repro.obs import runtime as obs
from repro.workloads import random_values, unique_keys

needs_provider = pytest.mark.skipif(
    not compiled_available(), reason="C kernel library unavailable"
)

REPORT_FIELDS = (
    "op",
    "num_ops",
    "load_sectors",
    "store_sectors",
    "cas_attempts",
    "cas_successes",
    "warp_collectives",
    "failed",
    "group_size",
)


def report_tuple(report) -> tuple:
    return tuple(getattr(report, f) for f in REPORT_FIELDS) + (
        report.probe_windows.tobytes(),
    )


def slots_bytes(table) -> bytes:
    layout, packed, kp, vp = slot_planes(table.slots)
    return packed.tobytes() if layout == "aos" else kp.tobytes() + vp.tobytes()


def lifecycle(
    kernels: str,
    *,
    n: int = 1200,
    group_size: int = 4,
    layout: str = "aos",
    probing: str = "window",
    seed: int = 5,
) -> dict:
    """insert → query(hit+miss) → erase → tombstone-heavy reinsert."""
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    probe = np.concatenate([keys, unique_keys(max(n // 2, 1), seed=seed + 2)])
    table = WarpDriveHashTable(
        max(64, int(n / 0.8)),
        group_size=group_size,
        layout=layout,
        probing=probing,
    )
    try:
        irep = table.insert(keys, values, kernels=kernels)
        qvals, qfound = table.query(probe, kernels=kernels)
        erased = table.erase(keys[: n // 2], kernels=kernels)
        rrep = table.insert(
            keys[: n // 2], values[: n // 2] + 1, kernels=kernels
        )
        return {
            "slots": slots_bytes(table),
            "insert": report_tuple(irep),
            "reinsert": report_tuple(rrep),
            "query": (qvals.tobytes(), qfound.tobytes()),
            "erased": erased.tobytes(),
            "counter": table.counter.snapshot(),
            "size": len(table),
        }
    finally:
        table.free()


@needs_provider
class TestBitIdentity:
    @pytest.mark.parametrize("group_size", [1, 4, 32])
    @pytest.mark.parametrize("layout", ["aos", "soa", "compact"])
    def test_lifecycle_matches_fast(self, group_size, layout):
        assert lifecycle(
            "compiled", group_size=group_size, layout=layout
        ) == lifecycle("fast", group_size=group_size, layout=layout)

    @pytest.mark.parametrize("probing", ["window", "double", "linear"])
    def test_probing_policies_match_fast(self, probing):
        assert lifecycle("compiled", probing=probing) == lifecycle(
            "fast", probing=probing
        )

    def test_growth_episodes_match_fast(self):
        """Quarter-capacity start: the compiled path must survive the
        coordinated resize-and-rehash episodes bit-for-bit."""
        n = 2000
        keys = unique_keys(n, seed=41)
        values = random_values(n, seed=42)
        snaps = {}
        for kernels in ("fast", "compiled"):
            table = WarpDriveHashTable(
                max(64, n // 4),
                group_size=4,
                growth=GrowthPolicy(max_load=0.85),
            )
            try:
                for lo in range(0, n, n // 4):
                    table.insert(
                        keys[lo : lo + n // 4],
                        values[lo : lo + n // 4],
                        kernels=kernels,
                    )
                qvals, qfound = table.query(keys, kernels=kernels)
                snaps[kernels] = (
                    slots_bytes(table),
                    table.capacity,
                    qvals.tobytes(),
                    qfound.tobytes(),
                    len(table),
                )
            finally:
                table.free()
        assert snaps["fast"] == snaps["compiled"]

    @examples(15)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=500),
        group_size=st.sampled_from([1, 4, 32]),
        layout=st.sampled_from(["aos", "soa", "compact"]),
    )
    def test_random_workloads_match_fast(self, seed, n, group_size, layout):
        assert lifecycle(
            "compiled", n=n, group_size=group_size, layout=layout, seed=seed
        ) == lifecycle(
            "fast", n=n, group_size=group_size, layout=layout, seed=seed
        )


@needs_provider
class TestProviders:
    """Pinning ``REPRO_JIT_PROVIDER=cc`` runs the same loops."""

    @pytest.mark.parametrize("provider", ["cc"])
    def test_provider_matches_fast(self, provider, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", provider)
        assert lifecycle("compiled") == lifecycle("fast")


@needs_provider
class TestWarmup:
    def test_warm_compiles_once_under_jit_span(self, monkeypatch):
        # forget this process's loaded library so warm() loads it again
        monkeypatch.setattr(_jit_cc, "_LIB", None)
        with obs.session() as (recorder, _):
            assert warm() is True
            # every op, layout and probing policy shares the one library:
            # launching them all must not load it again
            for layout in ("aos", "compact"):
                for probing in ("window", "linear"):
                    lifecycle(
                        "compiled", n=100, layout=layout, probing=probing
                    )
            assert warm() is True
        compile_spans = [s for s in recorder.spans if s.name == "jit_compile"]
        assert len(compile_spans) == 1
        assert compile_spans[0].attrs["kernels"] == "compiled"
        assert compile_spans[0].attrs["provider"] == "cc"

    def test_warm_launches_hit_hot_cache(self):
        warm()
        keys = unique_keys(200, seed=7)
        table = WarpDriveHashTable(512, group_size=4)
        try:
            with obs.session() as (recorder, _):
                table.insert(keys, keys, kernels="compiled")
                assert not [
                    s for s in recorder.spans if s.name == "jit_compile"
                ]
        finally:
            table.free()
