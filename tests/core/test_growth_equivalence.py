"""Growth equivalence: a grown table ≡ a fresh table at the target capacity.

``grow()`` keeps the hash family (``HashTableConfig.grown`` only swaps
the capacity), and the rehash replays live pairs through the real bulk
kernels, so a table grown c0 → c1 must be *bit-identical* — same slot
array, same query results — to a fresh table built at c1 with the same
family and fed the same history.  These property tests enforce that
across |g| ∈ {1, 4, 32}, both storage layouts, tombstone-heavy
histories, and the serial/thread shard engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core.config import HashTableConfig
from repro.core.growth import GrowthPolicy
from repro.core.partitioned import PartitionedWarpDriveTable
from repro.core.table import WarpDriveHashTable
from repro.hashing.families import make_double_family
from repro.workloads.distributions import random_values, unique_keys


def _history(seed: int, n: int, erase_frac: float):
    """A replayable insert / erase / reinsert history."""
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    n_erase = int(n * erase_frac)
    return [
        ("insert", keys, values),
        ("erase", keys[:n_erase], None),
        ("insert", keys[: n_erase // 2], values[: n_erase // 2] + 1),
    ]


def _replay(table, history):
    for op, keys, values in history:
        if op == "insert":
            table.insert(keys, values)
        else:
            table.erase(keys)


def _final_queryable(history):
    """(keys, expected_values, expected_found) after the whole history."""
    _, keys, values = history[0]
    n_erase = history[1][1].shape[0]
    n_back = history[2][1].shape[0]
    expected = values.copy()
    expected[:n_back] = history[2][2]
    found = np.ones(keys.shape[0], dtype=bool)
    found[n_back:n_erase] = False
    return keys, expected, found


class TestGrownEqualsFresh:
    @pytest.mark.parametrize("group_size", [1, 4, 32])
    @pytest.mark.parametrize("layout", ["aos", "soa", "compact"])
    @given(data=st.data())
    @examples(8)
    def test_bit_identical_slots_and_queries(self, group_size, layout, data):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        erase_frac = data.draw(
            st.sampled_from([0.0, 0.3, 0.8]), label="erase_frac"
        )
        c0, c1 = 128, 512
        n = data.draw(st.integers(8, 100), label="n")
        family = make_double_family(translation=seed % 97)
        history = _history(seed, n, erase_frac)

        grown = WarpDriveHashTable(
            config=HashTableConfig(
                capacity=c0, group_size=group_size, family=family
            ),
            layout=layout,
        )
        _replay(grown, history)
        # a fresh table never saw the erased keys' tombstones: replay only
        # the *live* pairs, in pre-grow slot order — exactly the sequence
        # the rehash migrates (window placement is insertion-order
        # sensitive when probe windows collide, so any other permutation
        # is not guaranteed bit-identical)
        live_k, live_v = grown.export()
        grown.grow(c1)

        fresh = WarpDriveHashTable(
            config=HashTableConfig(
                capacity=c1, group_size=group_size, family=family
            ),
            layout=layout,
        )
        order = np.argsort(live_k, kind="stable")
        fk, fv = live_k[order], live_v[order]
        gk, gv = grown.export()
        gorder = np.argsort(gk, kind="stable")
        assert (fk == gk[gorder]).all() and (fv == gv[gorder]).all()
        fresh.insert(live_k, live_v)

        assert (
            np.asarray(grown.slots) == np.asarray(fresh.slots)
        ).all(), "grown slot array differs from fresh build"

        keys, expected, found_exp = _final_queryable(history)
        for t in (grown, fresh):
            got, found = t.query(keys)
            assert (found == found_exp).all()
            assert (got[found_exp] == expected[found_exp]).all()

    @given(
        seed=st.integers(0, 2**16),
        chunks=st.integers(2, 6),
    )
    @examples(10)
    def test_policy_ingest_matches_explicit_path(self, seed, chunks):
        """Chunked policy-driven growth ends at a state equivalent to a
        fresh table of the final capacity holding the same pairs."""
        keys = unique_keys(300, seed=seed)
        values = random_values(300, seed=seed + 1)
        family = make_double_family(translation=seed % 53)
        auto = WarpDriveHashTable(
            config=HashTableConfig(
                capacity=64,
                group_size=4,
                family=family,
                growth=GrowthPolicy(max_load=0.9),
            )
        )
        for ck, cv in zip(
            np.array_split(keys, chunks), np.array_split(values, chunks)
        ):
            auto.insert(ck, cv)
        assert auto.grows >= 1
        fresh = WarpDriveHashTable(
            config=HashTableConfig(
                capacity=auto.capacity, group_size=4, family=family
            )
        )
        fresh.insert(keys, values)
        got_a, found_a = auto.query(keys)
        got_f, found_f = fresh.query(keys)
        assert found_a.all() and found_f.all()
        assert (got_a == values).all() and (got_f == values).all()


class TestEngineVariants:
    """Growth under each shard-execution engine ends in the same state."""

    def _ingest(self, engine):
        t = PartitionedWarpDriveTable(
            256,
            max_partition_bytes=512,
            engine=engine,
            growth=GrowthPolicy(max_load=0.9),
        )
        keys = unique_keys(900, seed=77)
        values = random_values(900, seed=78)
        for ck, cv in zip(np.array_split(keys, 6), np.array_split(values, 6)):
            t.insert(ck, cv)
        got, found = t.query(keys)
        assert found.all() and (got == values).all()
        snapshot = {
            "grows": tuple(s.grows for s in t.subtables),
            "caps": tuple(s.capacity for s in t.subtables),
            "sizes": tuple(len(s) for s in t.subtables),
            "slots": tuple(
                np.asarray(s.slots).tobytes() for s in t.subtables
            ),
        }
        t.free()
        return snapshot

    def test_serial_equals_thread(self):
        assert self._ingest("serial") == self._ingest("thread")
