"""Tests for the slot-storage policy layer (``repro.core.store``)."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.constants import EMPTY_SLOT, TOMBSTONE_SLOT
from repro.core.bulk import bulk_erase, bulk_insert, bulk_query
from repro.core.probing import WindowSequence
from repro.core.store import (
    STORE_LAYOUTS,
    CompactPackedView,
    CompactSlotStore,
    PackedSlotStore,
    SoAPackedView,
    SplitSlotStore,
    compact_slot_bits,
    make_store,
    slot_record_bytes,
)
from repro.core.table import WarpDriveHashTable
from repro.errors import ConfigurationError
from repro.hashing.families import make_double_family
from repro.simt.counters import TransactionCounter
from repro.workloads.distributions import random_values, unique_keys


class TestMakeStore:
    def test_layout_vocabulary(self):
        assert set(STORE_LAYOUTS) == {"aos", "soa", "compact"}

    def test_aos_builds_packed(self):
        store = make_store(64, layout="aos")
        assert isinstance(store, PackedSlotStore)
        assert store.view.dtype == np.uint64
        assert (np.asarray(store.view) == EMPTY_SLOT).all()

    def test_soa_builds_split(self):
        store = make_store(64, layout="soa")
        assert isinstance(store, SplitSlotStore)
        assert isinstance(store.view, SoAPackedView)
        assert (np.asarray(store.view) == EMPTY_SLOT).all()

    def test_compact_builds_quotient_store(self):
        store = make_store(64, layout="compact")
        assert isinstance(store, CompactSlotStore)
        assert isinstance(store.view, CompactPackedView)
        assert (np.asarray(store.view) == EMPTY_SLOT).all()

    def test_unknown_layout_rejected(self):
        with pytest.raises(ConfigurationError, match="layout"):
            make_store(64, layout="columnar")

    @pytest.mark.parametrize("layout", STORE_LAYOUTS)
    def test_nbytes_follows_record_width(self, layout):
        """``nbytes`` is layout-derived: 8 B/slot for aos/soa, the
        quotiented record for compact (the perf model reads this)."""
        for capacity in (1 << 10, 1 << 16, 1 << 20):
            store = make_store(capacity, layout=layout)
            assert store.record_bytes == slot_record_bytes(layout, capacity)
            assert store.nbytes == capacity * store.record_bytes

    def test_compact_record_narrows_with_capacity(self):
        widths = {
            1 << 10: 8, 1 << 14: 8, 1 << 16: 7, 1 << 20: 7,
            1 << 24: 6, 1 << 28: 6, 1 << 32: 5,
        }
        for capacity, expect in widths.items():
            assert slot_record_bytes("compact", capacity) == expect
            assert -(-compact_slot_bits(capacity) // 8) == expect
        assert slot_record_bytes("aos", 1 << 24) == 8
        assert slot_record_bytes("soa", 1 << 24) == 8


class TestSoAPackedView:
    def _view(self, capacity=16):
        return make_store(capacity, layout="soa").view

    def test_sentinels_round_trip_bit_exact(self):
        view = self._view()
        assert int(view[0]) == EMPTY_SLOT
        view[3] = np.uint64(TOMBSTONE_SLOT)
        assert int(view[3]) == TOMBSTONE_SLOT
        view.fill(TOMBSTONE_SLOT)
        assert (np.asarray(view) == TOMBSTONE_SLOT).all()

    def test_scalar_get_set(self):
        view = self._view()
        word = np.uint64((7 << 32) | 42)
        view[5] = word
        got = view[5]
        assert isinstance(got, np.uint64) and got == word

    def test_fancy_get_set(self):
        view = self._view()
        idx = np.array([1, 4, 9], dtype=np.int64)
        words = ((np.arange(3, dtype=np.uint64) + 1) << np.uint64(32)) | np.uint64(5)
        view[idx] = words
        assert (view[idx] == words).all()
        # 2-D gather, as the bulk kernels' window loads do
        rows = np.array([[1, 4], [9, 0]], dtype=np.int64)
        window = view[rows]
        assert window.shape == (2, 2) and window.dtype == np.uint64
        assert window[1, 1] == EMPTY_SLOT

    def test_equality_scans_like_packed_array(self):
        view = self._view()
        view[2] = np.uint64(TOMBSTONE_SLOT)
        mask = view == TOMBSTONE_SLOT
        assert mask.sum() == 1 and mask[2]
        assert (view != TOMBSTONE_SLOT).sum() == len(view) - 1

    def test_shape_len_dtype(self):
        view = self._view(10)
        assert view.shape == (10,) and len(view) == 10
        assert view.dtype == np.dtype(np.uint64)

    def test_mismatched_planes_rejected(self):
        with pytest.raises(ConfigurationError):
            SoAPackedView(
                np.zeros(4, dtype=np.uint32), np.zeros(5, dtype=np.uint32)
            )


class TestCompactPackedView:
    """The uint64 facade over the σ-permuted remainder/value planes."""

    def _view(self, capacity=16):
        return make_store(capacity, layout="compact").view

    def test_sentinels_round_trip_bit_exact(self):
        view = self._view()
        assert int(view[0]) == EMPTY_SLOT
        view[3] = np.uint64(TOMBSTONE_SLOT)
        assert int(view[3]) == TOMBSTONE_SLOT
        view.fill(TOMBSTONE_SLOT)
        assert (np.asarray(view) == TOMBSTONE_SLOT).all()

    def test_scalar_get_set(self):
        view = self._view()
        word = np.uint64((7 << 32) | 42)
        view[5] = word
        got = view[5]
        assert isinstance(got, np.uint64) and got == word

    def test_fancy_get_set(self):
        view = self._view()
        idx = np.array([1, 4, 9], dtype=np.int64)
        words = ((np.arange(3, dtype=np.uint64) + 1) << np.uint64(32)) | np.uint64(5)
        view[idx] = words
        assert (view[idx] == words).all()
        rows = np.array([[1, 4], [9, 0]], dtype=np.int64)
        window = view[rows]
        assert window.shape == (2, 2) and window.dtype == np.uint64
        assert window[1, 1] == EMPTY_SLOT

    def test_equality_scans_like_packed_array(self):
        view = self._view()
        view[2] = np.uint64(TOMBSTONE_SLOT)
        mask = view == TOMBSTONE_SLOT
        assert mask.sum() == 1 and mask[2]
        assert (view != TOMBSTONE_SLOT).sum() == len(view) - 1

    def test_rq_plane_is_permuted_not_raw(self):
        """The remainder plane stores σ(key-half), never the raw half —
        drifting to raw storage would silently break the sentinel
        reservation argument (docs/compact_layout.md)."""
        store = make_store(16, layout="compact")
        word = np.uint64((1234 << 32) | 9)
        store.view[0] = word
        assert int(store._rq[0]) != 1234
        assert int(store.view[0]) == int(word)


class TestCompactRoundTrip:
    """Hypothesis: packed ↔ compact conversion is the identity."""

    @given(
        words=st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1),
                st.sampled_from([EMPTY_SLOT, TOMBSTONE_SLOT]),
            ),
            min_size=0,
            max_size=32,
        )
    )
    @examples(60)
    def test_packed_load_round_trips(self, words):
        packed = np.full(32, EMPTY_SLOT, dtype=np.uint64)
        packed[: len(words)] = np.array(words, dtype=np.uint64)
        store = make_store(32, layout="compact")
        store.load_packed(packed)
        assert (np.asarray(store.packed()) == packed).all()
        assert (np.asarray(store.view) == packed).all()
        back = make_store(32, layout="aos")
        back.load_packed(store.packed())
        assert (np.asarray(back.view) == packed).all()


class TestLayoutEquivalence:
    """The layout is invisible to the kernels: bit-identical tables."""

    @pytest.mark.parametrize("g", [1, 4, 32])
    def test_bulk_kernels_bit_identical(self, g):
        family = make_double_family(translation=11)
        seq = WindowSequence(family, g, 256)
        keys = unique_keys(150, seed=21)
        values = random_values(150, seed=22)
        stores = [make_store(256, layout=lay) for lay in STORE_LAYOUTS]
        for store in stores:
            bulk_insert(store.view, seq, keys, values, TransactionCounter())
            bulk_erase(store.view, seq, keys[:40], TransactionCounter())
        packed = [store.packed() for store in stores]
        for a, b in itertools.combinations(packed, 2):
            assert (np.asarray(a) == np.asarray(b)).all()
        for store in stores:
            _, vals, found = bulk_query(
                store.view, seq, keys, TransactionCounter()
            )
            assert (found[40:]).all() and not found[:40].any()
            assert (vals[40:] == values[40:]).all()

    def test_table_slots_match_across_layouts(self):
        keys = unique_keys(200, seed=3)
        values = random_values(200, seed=4)
        family = make_double_family(translation=9)
        # same family in both tables so placements are comparable
        from repro.core.config import HashTableConfig

        cfg = HashTableConfig(capacity=300, group_size=8, family=family)
        tables = [
            WarpDriveHashTable(config=cfg, layout=lay) for lay in STORE_LAYOUTS
        ]
        for t in tables:
            t.insert(keys, values)
            t.erase(keys[:17])
        for a, b in itertools.combinations(tables, 2):
            assert (np.asarray(a.slots) == np.asarray(b.slots)).all()

    @pytest.mark.parametrize("dst_layout", ["soa", "compact"])
    def test_packed_round_trip(self, dst_layout):
        src = make_store(64, layout="aos")
        seq = WindowSequence(make_double_family(translation=2), 4, 64)
        keys = unique_keys(40, seed=5)
        bulk_insert(src.view, seq, keys, keys, TransactionCounter())
        dst = make_store(64, layout=dst_layout)
        dst.load_packed(src.packed())
        assert (np.asarray(dst.view) == np.asarray(src.view)).all()


class TestSanitizerIntegration:
    @pytest.mark.parametrize("layout", STORE_LAYOUTS)
    def test_view_carries_sanitizer(self, layout):
        from repro.sanitize.racecheck import RaceChecker

        checker = RaceChecker()
        store = make_store(32, layout=layout, sanitizer=checker)
        assert getattr(store.view, "sanitizer", None) is checker

    @pytest.mark.parametrize("layout", STORE_LAYOUTS)
    def test_ref_kernels_run_shadowed(self, layout):
        from repro.perfmodel.specs import P100
        from repro.sanitize.racecheck import RaceChecker
        from repro.simt.device import Device

        device = Device(0, P100)
        device.attach_sanitizer(RaceChecker())
        t = WarpDriveHashTable(64, device=device, layout=layout)
        keys = unique_keys(30, seed=7)
        t.insert(keys, keys, kernels="ref")
        v, f = t.query(keys, kernels="ref")
        assert f.all()
        t.free()


class TestFree:
    @pytest.mark.parametrize("layout", STORE_LAYOUTS)
    def test_free_releases_and_empties(self, layout):
        store = make_store(32, layout=layout)
        store.free()
        assert len(store.view) == 0
        store.free()  # idempotent
