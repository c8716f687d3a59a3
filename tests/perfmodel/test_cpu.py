"""Tests for the CPU (Folklore) timing model."""

import pytest

from repro.baselines.cpu_map import FolkloreCpuMap
from repro.core.report import KernelReport
from repro.perfmodel.cpu import cpu_kernel_seconds
from repro.perfmodel.memmodel import kernel_seconds, throughput
from repro.perfmodel.specs import P100, XEON_E5_2680V4_NODE
from repro.workloads.distributions import random_values, unique_keys


class TestCpuModel:
    def test_zero_ops_free(self):
        assert cpu_kernel_seconds(KernelReport(op="insert")) == 0.0

    def test_folklore_anchor(self):
        """Maier et al.: up to ~300 M inserts/s on the dual-socket node.
        The model should land within a factor of two of that at a
        moderate load."""
        n = 1 << 14
        t = FolkloreCpuMap.for_load_factor(n, 0.5, seed=1)
        rep = t.insert(unique_keys(n, seed=2), random_values(n, seed=3))
        rate = throughput(n, cpu_kernel_seconds(rep))
        assert 150e6 < rate < 600e6

    def test_gpu_beats_cpu_by_paper_margin(self):
        """The motivation for the whole paper: HBM2 over DDR4.  WarpDrive
        on a P100 should beat Folklore on the Xeon node by ~3-10x."""
        from repro.core.table import WarpDriveHashTable

        n = 1 << 14
        keys = unique_keys(n, seed=4)
        values = random_values(n, seed=5)

        cpu = FolkloreCpuMap.for_load_factor(n, 0.9, seed=6)
        cpu_rep = cpu.insert(keys, values)
        cpu_rate = throughput(n, cpu_kernel_seconds(cpu_rep))

        gpu = WarpDriveHashTable.for_load_factor(n, 0.9, group_size=4)
        gpu_rep = gpu.insert(keys, values)
        gpu_rate = throughput(n, kernel_seconds(gpu_rep, P100))

        assert 2.0 < gpu_rate / cpu_rate < 20.0

    def test_spec_effective_bandwidth(self):
        spec = XEON_E5_2680V4_NODE
        assert spec.effective_random_bandwidth == pytest.approx(
            spec.mem_bandwidth * spec.random_access_efficiency
        )
