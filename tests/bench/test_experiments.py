"""Small-scale smoke tests of the experiment harness.

These run each ``run_*`` experiment at a reduced size and check the
result *structure* plus basic sanity; the paper-shape assertions live in
``tests/integration/test_paper_shapes.py``.
"""

import math

import pytest

from repro.bench import (
    run_bandwidths,
    run_capacity_sweep,
    run_groupsize_ablation,
    run_layout_ablation,
    run_overlap,
    run_probing_ablation,
    run_scaling,
    run_single_gpu_sweep,
    run_speedup_table,
    run_strategy_ablation,
)


class TestSingleGpuSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_single_gpu_sweep(
            n=1 << 12, loads=(0.5, 0.9), group_sizes=(1, 4, 32)
        )

    def test_series_present(self, sweep):
        assert set(sweep.insert_rates) == {"WD|g|=1", "WD|g|=4", "WD|g|=32", "CUDPP"}
        assert set(sweep.retrieve_rates) == set(sweep.insert_rates)

    def test_rates_positive(self, sweep):
        for series in sweep.insert_rates.values():
            assert all(r > 0 or math.isnan(r) for r in series)
            assert len(series) == 2

    def test_format_contains_tables(self, sweep):
        out = sweep.format()
        assert "INSERTION" in out and "RETRIEVAL" in out

    def test_speedup_helper(self, sweep):
        assert sweep.speedup_over_cudpp(0.9, op="insert") > 0

    def test_zipf_sweep_skips_cudpp(self):
        sweep = run_single_gpu_sweep(
            n=1 << 11, loads=(0.8,), group_sizes=(4,), distribution="zipf"
        )
        assert math.isnan(sweep.insert_rates["CUDPP"][0])

    def test_best_group_helper(self, sweep):
        label = sweep.best_group(1, op="insert")
        assert label.startswith("WD")

    def test_without_cudpp(self):
        sweep = run_single_gpu_sweep(
            n=1 << 10, loads=(0.5,), group_sizes=(4,), include_cudpp=False
        )
        assert "CUDPP" not in sweep.insert_rates

    def test_invalid_group_size_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_single_gpu_sweep(n=1 << 10, loads=(0.5,), group_sizes=(3,))

    def test_speedup_requires_known_load(self, sweep):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            sweep.speedup_over_cudpp(0.42)

    def test_paper_scale_recorded(self, sweep):
        assert sweep.paper_n == 1 << 27
        assert sweep.sim_n == 1 << 12


class TestSpeedupTable:
    def test_structure(self):
        tbl = run_speedup_table(n=1 << 12, loads=(0.8, 0.9, 0.95))
        assert len(tbl.insert_speedups) == 3
        assert "paper" in tbl.format()


class TestScaling:
    def test_structure(self):
        res = run_scaling(n_sim=1 << 11, gpu_counts=(1, 2), paper_exponents=(28,))
        assert set(res.strong) == {"Insert 2^28", "Retrieve 2^28"}
        assert res.strong["Insert 2^28"][0] == pytest.approx(1.0)
        assert "STRONG" in res.format()

    def test_requires_m1_baseline(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_scaling(n_sim=1 << 10, gpu_counts=(2, 4))


class TestCapacity:
    def test_structure(self):
        res = run_capacity_sweep(
            paper_exponents=(28, 32), distributions=("unique",), n_sim=1 << 12
        )
        assert len(res.device_insert["unique"]) == 2
        assert "DEVICE-SIDED INSERT" in res.format()


class TestOverlap:
    def test_structure(self):
        res = run_overlap(num_batches=4, batch_sim=1 << 11, threads=(1, 2))
        assert res.labels == ["Ins1", "Ins2", "Ret1", "Ret2"]
        assert res.reductions[0] == 0.0
        assert res.reductions[1] > 0.0
        assert "Fig. 11" in res.format()


class TestBandwidths:
    def test_anchors_close_to_paper(self):
        res = run_bandwidths(n_sim=1 << 13, num_batches=4)
        assert res.multisplit_accumulated == pytest.approx(210e9, rel=0.15)
        assert res.alltoall_accumulated == pytest.approx(192e9, rel=0.15)
        assert 0.3 < res.host_insert_pcie_fraction < 1.0
        assert "paper" in res.format()


class TestAblations:
    def test_groupsize(self):
        res = run_groupsize_ablation(n=1 << 11, loads=(0.5, 0.9))
        assert len(res.measured_best) == 2
        assert 0.0 <= res.agreement() <= 1.0
        assert "A1" in res.format()

    def test_probing(self):
        res = run_probing_ablation(n=1 << 10, loads=(0.5, 0.9))
        assert set(res.stats) == {"linear", "quadratic", "double"}
        assert "A2" in res.format()

    def test_strategies(self):
        res = run_strategy_ablation(n=1 << 11)
        assert len(res) == 4

    def test_layout(self):
        res = run_layout_ablation()
        assert "A4" in res.format()
        # SoA doubles the traffic for sub-sector windows
        assert res.soa_sectors_per_window[0] == 2 * res.aos_sectors_per_window[0]
