"""Tests for transaction accounting."""

import numpy as np

from repro.constants import SECTOR_BYTES
from repro.simt.counters import TransactionCounter, sectors_for_access, sectors_for_lanes


class TestSectorsForAccess:
    def test_zero_bytes(self):
        assert sectors_for_access(0, 0) == 0

    def test_aligned_single_sector(self):
        assert sectors_for_access(0, 32) == 1
        assert sectors_for_access(32, 32) == 1

    def test_straddling_access(self):
        assert sectors_for_access(16, 32) == 2

    def test_window_sizes(self):
        """Coalesced |g|-slot windows: the cost ladder behind Fig. 7."""
        assert sectors_for_access(0, 1 * 8) == 1
        assert sectors_for_access(0, 4 * 8) == 1
        assert sectors_for_access(0, 8 * 8) == 2
        assert sectors_for_access(0, 32 * 8) == 8


class TestSectorsForLanes:
    def test_fully_coalesced_lanes(self):
        addrs = np.arange(4) * 8  # four consecutive 8-byte slots
        assert sectors_for_lanes(addrs, 8) == 1

    def test_scattered_lanes(self):
        addrs = np.array([0, 1000, 2000, 3000])
        assert sectors_for_lanes(addrs, 8) == 4

    def test_duplicate_lanes_share_sector(self):
        addrs = np.array([0, 0, 8, 16])
        assert sectors_for_lanes(addrs, 8) == 1

    def test_empty(self):
        assert sectors_for_lanes(np.array([]), 8) == 0

    def test_straddler_counts_both_sectors(self):
        assert sectors_for_lanes(np.array([28]), 8) == 2


class TestTransactionCounter:
    def test_bytes_derived_from_sectors(self):
        c = TransactionCounter()
        c.charge_load(3)
        c.charge_store(2)
        assert c.bytes_loaded == 3 * SECTOR_BYTES
        assert c.bytes_stored == 2 * SECTOR_BYTES
        assert c.total_sectors == 5

    def test_cas_accounting(self):
        c = TransactionCounter()
        c.charge_cas(attempts=3, successes=1)
        assert c.cas_attempts == 3 and c.cas_successes == 1

    def test_reset(self):
        c = TransactionCounter(load_sectors=5, cas_attempts=2)
        c.reset()
        assert c.snapshot() == TransactionCounter().snapshot()

    def test_snapshot_delta(self):
        c = TransactionCounter()
        before = c.snapshot()
        c.charge_load(7)
        delta = c.delta(before)
        assert delta["load_sectors"] == 7
        assert delta["store_sectors"] == 0

    def test_merge_and_add(self):
        a = TransactionCounter(load_sectors=1, cas_attempts=2)
        b = TransactionCounter(load_sectors=3, window_probes=4)
        total = a + b
        assert total.load_sectors == 4
        assert total.cas_attempts == 2
        assert total.window_probes == 4
        # operands untouched
        assert a.load_sectors == 1 and b.load_sectors == 3

    def test_charge_coalesced(self):
        c = TransactionCounter()
        c.charge_coalesced_load(np.arange(4) * 8, 8)
        c.charge_coalesced_store(np.array([0, 4096]), 8)
        assert c.load_sectors == 1
        assert c.store_sectors == 2
