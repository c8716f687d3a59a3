"""Calibration-sensitivity tests: the shapes must not be a lucky fit.

The reproduction's claims are qualitative orderings (optimal |g| band,
WarpDrive beating CUDPP, the degradation knee).  These tests perturb
each calibration constant by ±30% and assert the orderings survive —
i.e. the shapes derive from measured algorithmic work, not from the
specific constants.
"""

import dataclasses

import pytest

from repro.baselines.cudpp_cuckoo import CudppCuckooTable
from repro.constants import VALID_GROUP_SIZES
from repro.core.table import WarpDriveHashTable
from repro.perfmodel import calibration as cal
from repro.perfmodel.memmodel import kernel_seconds, throughput
from repro.perfmodel.specs import P100
from repro.workloads.distributions import random_values, unique_keys

N = 1 << 14
LOAD = 0.95


@pytest.fixture(scope="module")
def reports():
    """Measured insert reports at α = 0.95: one per |g|, plus CUDPP."""
    keys = unique_keys(N, seed=1)
    values = random_values(N, seed=2)
    wd = {}
    for g in VALID_GROUP_SIZES:
        t = WarpDriveHashTable.for_load_factor(N, LOAD, group_size=g)
        wd[g] = t.insert(keys, values)
    ck = CudppCuckooTable.for_load_factor(N, LOAD, seed=3)
    cuckoo = ck.insert(keys, values)
    return wd, cuckoo


def perturbed_spec(*, bw_factor=1.0, cas_factor=1.0):
    return dataclasses.replace(
        P100,
        random_access_efficiency=min(
            P100.random_access_efficiency * bw_factor, 1.0
        ),
        atomic_cas_rate=P100.atomic_cas_rate * cas_factor,
    )


FACTORS = (0.7, 1.0, 1.3)


class TestOrderingRobustness:
    @pytest.mark.parametrize("bw", FACTORS)
    @pytest.mark.parametrize("cas", FACTORS)
    def test_wd_beats_cuckoo_under_any_perturbation(self, reports, bw, cas):
        wd, cuckoo = reports
        spec = perturbed_spec(bw_factor=bw, cas_factor=cas)
        best_wd = min(kernel_seconds(r, spec) for r in wd.values())
        cuckoo_t = kernel_seconds(cuckoo, spec)
        assert cuckoo_t > 1.5 * best_wd  # the headline ordering holds

    @pytest.mark.parametrize("bw", FACTORS)
    @pytest.mark.parametrize("cas", FACTORS)
    def test_optimal_group_band_stable(self, reports, bw, cas):
        """Whatever the constants, |g| ∈ {2, 4, 8} stays optimal and the
        extremes stay dominated at high load."""
        wd, _ = reports
        spec = perturbed_spec(bw_factor=bw, cas_factor=cas)
        times = {g: kernel_seconds(r, spec) for g, r in wd.items()}
        best = min(times, key=times.get)
        assert best in (2, 4, 8)
        assert times[1] > times[best]
        assert times[32] > times[best]

    @pytest.mark.parametrize("issue_factor", FACTORS)
    def test_issue_rate_perturbation(self, reports, issue_factor, monkeypatch):
        wd, cuckoo = reports
        monkeypatch.setattr(
            cal, "TRANSACTION_ISSUE_RATE", cal.TRANSACTION_ISSUE_RATE * issue_factor
        )
        times = {g: kernel_seconds(r, P100) for g, r in wd.items()}
        best = min(times, key=times.get)
        assert best in (2, 4, 8)
        assert kernel_seconds(cuckoo, P100) > 1.5 * times[best]

    def test_degradation_knee_ordering_robust(self, reports):
        """Past-knee tables insert slower than sub-knee ones regardless
        of the ramp details."""
        wd, _ = reports
        rep = wd[4]
        for floor in (0.2, 0.3, 0.5):
            small = kernel_seconds(rep, P100, table_bytes=1 << 30)
            big = kernel_seconds(rep, P100, table_bytes=12 << 30)
            assert big > small


class TestAbsoluteSensitivity:
    def test_headline_rate_scales_smoothly(self, reports):
        """±30% on the CAS rate moves the headline rate by well under
        ±30% (it is one of three terms) — no cliff effects."""
        wd, _ = reports
        rep = wd[4]
        base = throughput(N, kernel_seconds(rep, P100))
        lo = throughput(N, kernel_seconds(rep, perturbed_spec(cas_factor=0.7)))
        hi = throughput(N, kernel_seconds(rep, perturbed_spec(cas_factor=1.3)))
        assert 0.75 * base < lo < base
        assert base < hi < 1.25 * base
