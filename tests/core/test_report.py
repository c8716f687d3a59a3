"""Tests for KernelReport."""

import numpy as np

from repro.constants import SECTOR_BYTES
from repro.core.report import KernelReport


def make(op="insert", probes=(1, 2, 3)):
    return KernelReport(
        op=op,
        num_ops=len(probes),
        probe_windows=np.array(probes, dtype=np.int64),
        load_sectors=10,
        store_sectors=4,
        cas_attempts=5,
        cas_successes=3,
        group_size=4,
    )


class TestDerived:
    def test_window_stats(self):
        rep = make()
        assert rep.total_windows == 6
        assert rep.mean_windows == 2.0
        assert rep.max_windows == 3

    def test_empty_stats(self):
        rep = KernelReport(op="query")
        assert rep.total_windows == 0
        assert rep.mean_windows == 0.0
        assert rep.max_windows == 0

    def test_bytes_touched(self):
        rep = make()
        assert rep.total_sectors == 14
        assert rep.bytes_touched == 14 * SECTOR_BYTES

    def test_window_histogram(self):
        rep = make(probes=(1, 1, 3))
        hist = rep.window_histogram()
        assert hist[1] == 2 and hist[3] == 1


class TestMerge:
    def test_merge_sums_counts(self):
        merged = make().merge(make())
        assert merged.num_ops == 6
        assert merged.load_sectors == 20
        assert merged.cas_attempts == 10
        assert merged.probe_windows.shape == (6,)

    def test_merge_keeps_group_size(self):
        a = make()
        b = KernelReport(op="insert")
        assert a.merge(b).group_size == 4
        assert b.merge(a).group_size == 4

    def test_merge_host_sectors(self):
        a = KernelReport(op="insert", host_load_sectors=2)
        b = KernelReport(op="insert", host_store_sectors=3)
        m = a.merge(b)
        assert m.host_load_sectors == 2 and m.host_store_sectors == 3

    def test_as_dict(self):
        d = make().as_dict()
        assert d["op"] == "insert"
        assert d["mean_windows"] == 2.0
