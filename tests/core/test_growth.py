"""Tests for the table lifecycle layer: GrowthPolicy, grow(), rebuild obs."""

import numpy as np
import pytest

from repro.core.config import HashTableConfig
from repro.core.growth import GrowthPolicy
from repro.core.partitioned import PartitionedWarpDriveTable
from repro.core.table import WarpDriveHashTable
from repro.errors import ConfigurationError, InsertionError
from repro.obs import runtime as obs
from repro.obs.trace import TraceRecorder
from repro.workloads.distributions import random_values, unique_keys


@pytest.fixture
def traced():
    """Scoped obs with a fresh recorder; prior global state restored."""
    with obs.session() as (recorder, _metrics):
        yield recorder


class TestGrowthPolicy:
    def test_defaults(self):
        policy = GrowthPolicy()
        assert 0 < policy.max_load <= 1 and policy.factor > 1

    def test_max_pairs_floor(self):
        assert GrowthPolicy(max_load=0.9).max_pairs(100) == 90
        assert GrowthPolicy(max_load=0.5).max_pairs(7) == 3

    def test_should_grow_threshold(self):
        policy = GrowthPolicy(max_load=0.9)
        assert not policy.should_grow(100, 90)
        assert policy.should_grow(100, 91)

    def test_next_capacity_covers_requirement(self):
        policy = GrowthPolicy(max_load=0.9, factor=2.0)
        target = policy.next_capacity(64, 230)
        assert target > 64
        assert policy.max_pairs(target) >= 230

    def test_next_capacity_is_geometric(self):
        policy = GrowthPolicy(max_load=1.0, factor=2.0)
        assert policy.next_capacity(100, 101) == 200

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_invalid_max_load(self, bad):
        with pytest.raises(ConfigurationError):
            GrowthPolicy(max_load=bad)

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0])
    def test_invalid_factor(self, bad):
        with pytest.raises(ConfigurationError):
            GrowthPolicy(factor=bad)

    def test_config_rejects_non_policy(self):
        with pytest.raises(ConfigurationError):
            HashTableConfig(capacity=8, growth=0.9)


class TestConfigGrown:
    def test_keeps_family_and_policies(self):
        cfg = HashTableConfig(capacity=64, probing="double", layout="soa")
        grown = cfg.grown(128)
        assert grown.capacity == 128
        assert grown.family is cfg.family
        assert grown.probing == "double" and grown.layout == "soa"

    @pytest.mark.parametrize("target", [64, 32, 0, -1])
    def test_shrink_rejected(self, target):
        with pytest.raises(ConfigurationError):
            HashTableConfig(capacity=64).grown(target)


class TestExplicitGrow:
    def test_contents_preserved(self):
        t = WarpDriveHashTable(128, group_size=4)
        keys = unique_keys(100, seed=1)
        values = random_values(100, seed=2)
        t.insert(keys, values)
        report = t.grow(512)
        assert t.capacity == 512 and len(t) == 100 and t.grows == 1
        v, f = t.query(keys)
        assert f.all() and (v == values).all()
        assert report is not None and report.op == "rehash"
        assert t.last_rehash_report is report

    def test_empty_table_grow_returns_none(self):
        t = WarpDriveHashTable(64)
        assert t.grow(128) is None
        assert t.capacity == 128 and t.grows == 1

    def test_shrink_raises_and_leaves_table_intact(self):
        t = WarpDriveHashTable(64)
        keys = unique_keys(20, seed=3)
        t.insert(keys, keys)
        with pytest.raises(ConfigurationError):
            t.grow(32)
        assert t.capacity == 64 and len(t) == 20

    def test_rehash_work_charged_to_counter(self):
        t = WarpDriveHashTable(128)
        keys = unique_keys(80, seed=4)
        t.insert(keys, keys)
        probes_before = t.counter.window_probes
        stores_before = t.counter.store_sectors
        t.grow(512)
        assert t.counter.window_probes > probes_before
        assert t.counter.store_sectors > stores_before

    def test_grown_equals_fresh_at_target_capacity(self):
        cfg = HashTableConfig(capacity=128, group_size=8)
        keys = unique_keys(90, seed=5)
        values = random_values(90, seed=6)
        grown = WarpDriveHashTable(config=cfg)
        grown.insert(keys, values)
        grown.grow(512)
        fresh = WarpDriveHashTable(
            config=HashTableConfig(capacity=512, group_size=8, family=cfg.family)
        )
        fresh.insert(keys, values)
        assert (np.asarray(grown.slots) == np.asarray(fresh.slots)).all()

    @pytest.mark.parametrize("layout", ["aos", "soa", "compact"])
    def test_grow_preserves_layout(self, layout):
        t = WarpDriveHashTable(64, layout=layout)
        keys = unique_keys(40, seed=7)
        t.insert(keys, keys)
        t.grow(256)
        assert t.store.layout == layout
        v, f = t.query(keys)
        assert f.all()

    def test_device_vram_accounting_follows_grow(self):
        from repro.perfmodel.specs import P100
        from repro.simt.device import Device

        dev = Device(0, P100)
        t = WarpDriveHashTable(128, device=dev)
        assert dev.allocated_bytes == 128 * 8
        keys = unique_keys(50, seed=9)
        t.insert(keys, keys)
        t.grow(512)
        assert dev.allocated_bytes == 512 * 8
        t.free()
        assert dev.allocated_bytes == 0


class TestEnsureCapacity:
    def test_noop_without_policy(self):
        t = WarpDriveHashTable(32)
        assert t.ensure_capacity(1000) is None
        assert t.capacity == 32

    def test_noop_under_threshold(self):
        t = WarpDriveHashTable(100, growth=GrowthPolicy(max_load=0.9))
        assert t.ensure_capacity(90) is None
        assert t.capacity == 100

    def test_grows_past_threshold(self):
        t = WarpDriveHashTable(100, growth=GrowthPolicy(max_load=0.9))
        t.ensure_capacity(91)
        assert t.capacity > 100
        assert t.growth.max_pairs(t.capacity) >= 91


class TestPolicyDrivenIngest:
    def test_four_x_ingest_single_table(self):
        """Acceptance: ingest 4x the initial capacity at max_load=0.9."""
        t = WarpDriveHashTable(64, growth=GrowthPolicy(max_load=0.9))
        keys = unique_keys(256, seed=10)
        values = random_values(256, seed=11)
        for ck, cv in zip(np.array_split(keys, 8), np.array_split(values, 8)):
            t.insert(ck, cv)
        assert t.grows >= 1
        assert t.load_factor <= t.growth.max_load + 1e-9
        v, f = t.query(keys)
        assert f.all() and (v == values).all()

    def test_single_oversized_batch(self):
        t = WarpDriveHashTable(64, growth=GrowthPolicy(max_load=0.9))
        keys = unique_keys(400, seed=12)
        t.insert(keys, keys)
        v, f = t.query(keys)
        assert f.all()

    def test_growth_instead_of_insertion_error(self):
        keys = unique_keys(200, seed=13)
        fixed = WarpDriveHashTable(64)
        with pytest.raises(InsertionError):
            fixed.insert(keys, keys)
        growing = WarpDriveHashTable(64, growth=GrowthPolicy(max_load=0.9))
        growing.insert(keys, keys)  # must not raise
        assert len(growing) == 200

    def test_ingest_after_tombstones(self):
        t = WarpDriveHashTable(64, growth=GrowthPolicy(max_load=0.9))
        keys = unique_keys(300, seed=14)
        t.insert(keys[:50], keys[:50])
        t.erase(keys[:25])
        for chunk in np.array_split(keys[50:], 5):
            t.insert(chunk, chunk)
        v, f = t.query(keys)
        assert not f[:25].any() and f[25:].all()


class TestGrowthObservability:
    def test_grow_span_with_rehash_attrs(self, traced):
        t = WarpDriveHashTable(64, growth=GrowthPolicy(max_load=0.9))
        keys = unique_keys(160, seed=15)
        for chunk in np.array_split(keys, 4):
            t.insert(chunk, chunk)
        spans = [s for s in traced.spans if s.name == "grow"]
        assert spans, [s.name for s in traced.spans]
        grown = [s for s in spans if "rehash_probe_windows" in s.attrs]
        assert grown, "no grow span carries a rehash kernel report"
        sp = grown[-1]
        assert sp.category == "lifecycle"
        assert sp.attrs["capacity_to"] > sp.attrs["capacity_from"]
        assert sp.attrs["rehash_probe_windows"] > 0
        assert sp.attrs["rehash_store_sectors"] > 0

    def test_rehash_metrics_counted(self, traced):
        t = WarpDriveHashTable(64, growth=GrowthPolicy(max_load=0.9))
        keys = unique_keys(160, seed=16)
        for chunk in np.array_split(keys, 4):
            t.insert(chunk, chunk)
        metrics = obs.get_metrics()
        assert metrics.counters.get("kernel.rehash.ops", 0) > 0
        assert metrics.counters.get("kernel.rehash.probe_windows", 0) > 0

    def test_rebuild_emits_lifecycle_span(self, traced):
        """Satellite (b): _rebuild_with now records an obs span."""
        # deterministic rebuild workload (same as TestRebuild in test_table)
        cfg = HashTableConfig(capacity=256, group_size=4, p_max=3, max_rebuilds=8)
        t = WarpDriveHashTable(config=cfg)
        keys = unique_keys(236, seed=20)
        t.insert(keys, random_values(236, seed=21))
        assert t.rebuilds >= 1
        spans = [s for s in traced.spans if s.name == "rebuild"]
        assert len(spans) == t.rebuilds
        assert spans[0].category == "lifecycle"
        assert spans[0].attrs["attempt"] >= 1
        assert "live" in spans[0].attrs and "pending" in spans[0].attrs

    def test_no_spans_when_disabled(self):
        recorder = TraceRecorder()
        # obs disabled: grow must not touch any recorder
        t = WarpDriveHashTable(64, growth=GrowthPolicy(max_load=0.9))
        keys = unique_keys(160, seed=18)
        t.insert(keys, keys)
        assert recorder.spans == []


class TestPartitionedGrowth:
    @pytest.mark.parametrize("engine", ["serial", "thread"])
    def test_four_x_ingest(self, engine):
        t = PartitionedWarpDriveTable(
            256,
            max_partition_bytes=512,
            engine=engine,
            growth=GrowthPolicy(max_load=0.9),
        )
        keys = unique_keys(1024, seed=19)
        values = random_values(1024, seed=20)
        for ck, cv in zip(np.array_split(keys, 16), np.array_split(values, 16)):
            t.insert(ck, cv)
        assert sum(s.grows for s in t.subtables) >= 1
        v, f = t.query(keys)
        assert f.all() and (v == values).all()
        t.free()

    def test_explicit_grow(self):
        t = PartitionedWarpDriveTable(256, max_partition_bytes=512)
        keys = unique_keys(100, seed=22)
        t.insert(keys, keys)
        reports = t.grow(1024)
        assert t.capacity >= 1024
        assert reports and all(r.op == "rehash" for r in reports)
        v, f = t.query(keys)
        assert f.all()
        t.free()

    def test_explicit_shrink_rejected(self):
        t = PartitionedWarpDriveTable(256, max_partition_bytes=512)
        with pytest.raises(ConfigurationError):
            t.grow(128)
        t.free()
