"""Integration tests asserting the paper's qualitative result shapes.

These are the acceptance criteria from DESIGN.md §4: who wins, by
roughly what factor, and where the crossovers fall.  They run the real
experiment harness at a reduced (but statistically meaningful) size.
"""

import math

import pytest

from repro.bench import (
    run_bandwidths,
    run_capacity_sweep,
    run_overlap,
    run_scaling,
    run_single_gpu_sweep,
    run_speedup_table,
)

N = 1 << 14


@pytest.fixture(scope="module")
def fig7():
    return run_single_gpu_sweep(
        n=N, loads=(0.5, 0.8, 0.95), group_sizes=(1, 2, 4, 8, 16, 32), seed=42
    )


class TestFig7Shapes:
    def test_optimal_group_in_paper_range(self, fig7):
        """'optimal performance is achieved with |g| ∈ {2, 4, 8}'."""
        for i in range(len(fig7.loads)):
            for op in ("insert", "retrieve"):
                best = fig7.best_group(i, op=op)
                assert best in ("WD|g|=2", "WD|g|=4", "WD|g|=8"), (i, op, best)

    def test_g1_collapses_at_high_load(self, fig7):
        """The naive one-thread-per-pair path loses badly at α = 0.95."""
        i = fig7.loads.index(0.95)
        g1 = fig7.insert_rates["WD|g|=1"][i]
        best = max(fig7.insert_rates[f"WD|g|={g}"][i] for g in (2, 4, 8))
        assert best > 1.8 * g1

    def test_g1_competitive_at_moderate_load(self, fig7):
        """'Unlike on previous architectures this approach is competitive
        to CUDPP on a Tesla P100 for reasonable loads.'"""
        i = fig7.loads.index(0.5)
        assert fig7.insert_rates["WD|g|=1"][i] > 0.7 * fig7.insert_rates["CUDPP"][i]

    def test_rates_decrease_with_load(self, fig7):
        for label, series in fig7.insert_rates.items():
            vals = [v for v in series if not math.isnan(v)]
            assert vals[0] > vals[-1], label

    def test_retrieval_faster_than_insertion(self, fig7):
        for label in fig7.insert_rates:
            for i in range(len(fig7.loads)):
                ins = fig7.insert_rates[label][i]
                ret = fig7.retrieve_rates[label][i]
                if not (math.isnan(ins) or math.isnan(ret)):
                    assert ret > ins

    def test_headline_insert_rate(self, fig7):
        """'1.4 billion insertions per second ... for a load factor of
        0.95' — within 20%."""
        i = fig7.loads.index(0.95)
        best = max(fig7.insert_rates[f"WD|g|={g}"][i] for g in (2, 4, 8))
        assert best == pytest.approx(1.4e9, rel=0.2)

    def test_retrieval_rate_range(self, fig7):
        """Conclusion: device-sided retrieval ≈ (3.5 − 5.5)·10^9 ops/s."""
        i = fig7.loads.index(0.95)
        best = max(fig7.retrieve_rates[f"WD|g|={g}"][i] for g in (2, 4, 8))
        assert 2.8e9 < best < 6.5e9


class TestSpeedupShapes:
    @pytest.fixture(scope="class")
    def table(self):
        return run_speedup_table(n=N, loads=(0.8, 0.9, 0.95))

    def test_insert_speedups_track_paper(self, table):
        """Paper: 1.79 / 2.18 / 2.84 — ours within ±35% and increasing."""
        for ours, paper in zip(table.insert_speedups, table.paper_insert):
            assert ours == pytest.approx(paper, rel=0.35)
        assert table.insert_speedups == sorted(table.insert_speedups)

    def test_headline_speedup(self, table):
        """'outperforming ... CUDPP ... by a factor of 2.8 on a P100' at
        α = 0.95 — we accept 2.2+."""
        assert table.insert_speedups[-1] > 2.2

    def test_retrieve_speedups_modest(self, table):
        """Paper: ~1.3x throughout — ours in [1.0, 1.7]."""
        for ours in table.retrieve_speedups:
            assert 1.0 <= ours <= 1.7


class TestFig9Shapes:
    @pytest.fixture(scope="class")
    def scaling(self):
        return run_scaling(n_sim=1 << 13, paper_exponents=(28, 29))

    def test_efficiency_drop_then_flat(self, scaling):
        """'Both the strong and weak scaling efficiency remain constant
        for m ≥ 2' with a drop from m = 1."""
        for label, effs in scaling.weak.items():
            assert effs[0] == pytest.approx(1.0)
            assert effs[1] < 0.95  # the multisplit+comm drop
            # flat afterwards: within 20% of each other
            tail = effs[1:]
            assert max(tail) - min(tail) < 0.2 * max(tail), label

    def test_insert_2_29_superlinear_relative_to_2_28(self, scaling):
        """The CAS-degradation artifact makes the bigger problem scale
        *better* (the paper's super-linear strong-scaling point)."""
        e28 = scaling.strong["Insert 2^28"]
        e29 = scaling.strong["Insert 2^29"]
        assert e29[-1] > e28[-1]

    def test_insert_scales_better_than_retrieve(self, scaling):
        """Retrieval pays the reverse transposition too."""
        assert scaling.strong["Insert 2^28"][1] > scaling.strong["Retrieve 2^28"][1]


class TestFig10Shapes:
    @pytest.fixture(scope="class")
    def cap(self):
        return run_capacity_sweep(
            paper_exponents=(28, 30, 31, 32),
            distributions=("unique",),
            n_sim=1 << 13,
        )

    def test_insertion_drops_past_2_30(self, cap):
        """'device-sided insertion performance drops by up to a factor of
        two for n > 2^30'."""
        series = cap.device_insert["unique"]
        assert series[-1] < 0.85 * series[0]
        assert series[-1] > 0.35 * series[0]

    def test_retrieval_stays_flat(self, cap):
        """'Query performance remains constantly high.'"""
        series = cap.device_retrieve["unique"]
        assert max(series) / min(series) < 1.35

    def test_host_insert_faster_than_host_retrieve(self, cap):
        """'Host-sided insertions are faster than queries.'"""
        ins = cap.host_insert["unique"]
        ret = cap.host_retrieve["unique"]
        assert ins[0] > ret[0] * 0.95  # at small capacity, at least parity

    def test_device_faster_than_host(self, cap):
        for i in range(len(cap.paper_ns)):
            assert cap.device_insert["unique"][i] > cap.host_insert["unique"][i]


class TestFig11Shapes:
    @pytest.fixture(scope="class")
    def overlap(self):
        return run_overlap(num_batches=12, batch_sim=1 << 12)

    def test_insert_reduction_near_paper(self, overlap):
        """'reduced by up to 36% for insertion' — we accept 25-50%."""
        red = dict(zip(overlap.labels, overlap.reductions))
        assert 0.25 < max(red["Ins2"], red["Ins4"]) < 0.50

    def test_retrieve_reduction_near_paper(self, overlap):
        """'and 45% for querying' — we accept 35-55%."""
        red = dict(zip(overlap.labels, overlap.reductions))
        assert 0.35 < max(red["Ret2"], red["Ret4"]) < 0.55

    def test_more_threads_never_hurt(self, overlap):
        spans = dict(zip(overlap.labels, overlap.makespans))
        assert spans["Ins4"] <= spans["Ins2"] <= spans["Ins1"]
        assert spans["Ret4"] <= spans["Ret2"] <= spans["Ret1"]


class TestBandwidthAnchors:
    def test_paper_bandwidth_numbers(self):
        res = run_bandwidths(n_sim=1 << 13, num_batches=12)
        assert res.multisplit_accumulated == pytest.approx(210e9, rel=0.12)
        assert res.alltoall_accumulated == pytest.approx(192e9, rel=0.12)
        # '84%/55% of the theoretically achievable PCIe bandwidth' — the
        # insert fraction; pipeline fill/drain keeps us a little under
        assert 0.55 < res.host_insert_pcie_fraction < 0.95
