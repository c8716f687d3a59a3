"""Tombstone semantics: the deletion edge cases of open addressing.

These lock in the two-phase insert and full-walk erase guarantees: no
shadowed duplicate copies, no resurrection after erase, tombstone slots
reused without breaking reachability.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import TOMBSTONE_SLOT
from repro.core.table import WarpDriveHashTable


def tiny_table(capacity=16, g=4, p_max=8):
    return WarpDriveHashTable(capacity, group_size=g, p_max=p_max)


class TestShadowing:
    def test_reinsert_after_unrelated_erase_updates_in_place(self):
        """An insert must find its existing copy even when an earlier
        tombstone offers a tempting slot."""
        t = tiny_table()
        keys = np.arange(1, 13, dtype=np.uint32)
        t.insert(keys, keys)
        t.erase(keys[:4])  # scatter tombstones
        before = len(t)
        t.insert(keys[8:9], np.array([999], dtype=np.uint32))
        assert len(t) == before  # update, not a shadow copy
        k, _ = t.export()
        assert np.unique(k).size == k.size  # no duplicate keys stored

    def test_no_resurrection_after_erase(self):
        t = tiny_table()
        keys = np.arange(1, 13, dtype=np.uint32)
        t.insert(keys, keys)
        t.erase(keys[:4])
        t.insert(keys[8:9], np.array([7], dtype=np.uint32))
        t.erase(keys[8:9])
        _, found = t.query(keys[8:9])
        assert not found[0]

    def test_heavy_churn_no_duplicates(self):
        """Many insert/erase cycles over a small key set: the export must
        never contain a key twice."""
        t = tiny_table(capacity=32, g=2, p_max=16)
        keys = np.arange(1, 25, dtype=np.uint32)
        rng = np.random.default_rng(5)
        t.insert(keys[:16], keys[:16])
        for round_ in range(20):
            victims = rng.choice(keys[:16], size=4, replace=False).astype(np.uint32)
            t.erase(victims)
            t.insert(victims, (victims + round_).astype(np.uint32))
            k, _ = t.export()
            assert np.unique(k).size == k.size, f"round {round_}"
        got, found = t.query(keys[:16])
        assert found.all()

    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=25, deadline=None)
    def test_churn_property(self, seed):
        rng = np.random.default_rng(seed)
        t = tiny_table(capacity=24, g=4, p_max=16)
        universe = np.arange(1, 19, dtype=np.uint32)
        model: dict[int, int] = {}
        for step in range(12):
            if rng.random() < 0.5 and model:
                victim = np.array(
                    [rng.choice(list(model))], dtype=np.uint32
                )
                t.erase(victim)
                model.pop(int(victim[0]))
            else:
                key = int(rng.choice(universe))
                val = int(rng.integers(0, 1000))
                t.insert(
                    np.array([key], dtype=np.uint32),
                    np.array([val], dtype=np.uint32),
                )
                model[key] = val
        k, v = t.export()
        assert dict(zip(k.tolist(), v.tolist())) == model
        assert np.unique(k).size == k.size
        assert len(t) == len(model)


class TestTombstoneReuse:
    def test_tombstones_are_reclaimed(self):
        t = tiny_table(capacity=16, g=4, p_max=16)
        keys = np.arange(1, 16, dtype=np.uint32)
        t.insert(keys[:12], keys[:12])
        t.erase(keys[:6])
        # six slots reclaimed; six new keys must fit
        fresh = np.arange(100, 106, dtype=np.uint32)
        rep = t.insert(fresh, fresh)
        assert rep.failed == 0
        _, found = t.query(fresh)
        assert found.all()

    def test_erased_slots_do_not_block_queries(self):
        """A tombstone must not terminate another key's probe walk."""
        t = tiny_table(capacity=16, g=1, p_max=16)
        keys = np.arange(1, 15, dtype=np.uint32)
        t.insert(keys, keys)
        t.erase(keys[::2])
        _, found = t.query(keys[1::2])
        assert found.all()

    def test_tombstone_count_visible_in_slots(self):
        t = tiny_table(capacity=32)
        keys = np.arange(1, 17, dtype=np.uint32)
        t.insert(keys, keys)
        t.erase(keys[:5])
        assert int(np.sum(t.slots == TOMBSTONE_SLOT)) == 5

    def test_clear_resets_tombstones(self):
        t = tiny_table(capacity=32)
        keys = np.arange(1, 17, dtype=np.uint32)
        t.insert(keys, keys)
        t.erase(keys[:5])
        t.clear()
        assert int(np.sum(t.slots == TOMBSTONE_SLOT)) == 0


class TestRefExecutorParity:
    def test_ref_insert_also_refuses_to_shadow(self):
        fast = tiny_table()
        ref = tiny_table()
        keys = np.arange(1, 13, dtype=np.uint32)
        for t, ex in ((fast, "fast"), (ref, "ref")):
            t.insert(keys, keys, kernels=ex)
            t.erase(keys[:4], kernels=ex)
            t.insert(keys[8:9], np.array([999], dtype=np.uint32), kernels=ex)
            k, _ = t.export()
            assert np.unique(k).size == k.size, ex
        # identical final contents
        fk, fv = fast.export()
        rk, rv = ref.export()
        assert sorted(zip(fk.tolist(), fv.tolist())) == sorted(
            zip(rk.tolist(), rv.tolist())
        )
