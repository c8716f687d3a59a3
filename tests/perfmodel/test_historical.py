"""Historical cross-checks of the perf model against older hardware.

§III quotes Alcantara's single-pass cuckoo reaching "up to 250 million
inserts per second on a GTX 470" at ~80% load.  Pointing the same
counts→seconds model at the Fermi-era spec should land in that era's
ballpark — a provenance check that the model is not a P100-only fit.
"""

import pytest

from repro.baselines.cudpp_cuckoo import CudppCuckooTable
from repro.perfmodel.memmodel import kernel_seconds, throughput
from repro.perfmodel.specs import GTX470, P100
from repro.workloads.distributions import random_values, unique_keys


@pytest.fixture(scope="module")
def cuckoo_report():
    n = 1 << 14
    t = CudppCuckooTable.for_load_factor(n, 0.8, seed=1)
    rep = t.insert(unique_keys(n, seed=2), random_values(n, seed=3))
    return rep, n


class TestGtx470Anchor:
    def test_cuckoo_insert_rate_in_fermi_ballpark(self, cuckoo_report):
        """Alcantara: ~250 M inserts/s on a GTX 470 at 80% load."""
        rep, n = cuckoo_report
        rate = throughput(n, kernel_seconds(rep, GTX470))
        assert 100e6 < rate < 500e6

    def test_pascal_far_faster_than_fermi(self, cuckoo_report):
        """The generational gap the intro banks on: HBM2 vs GDDR5."""
        rep, n = cuckoo_report
        fermi = throughput(n, kernel_seconds(rep, GTX470))
        pascal = throughput(n, kernel_seconds(rep, P100))
        assert pascal > 2.5 * fermi

    def test_spec_sanity(self):
        assert GTX470.mem_bandwidth < P100.mem_bandwidth / 4
        assert GTX470.vram_bytes < P100.vram_bytes
