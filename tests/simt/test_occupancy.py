"""Tests for the SM occupancy calculator."""

import pytest

from repro.errors import ConfigurationError
from repro.simt.occupancy import PASCAL_SM, KernelResources, occupancy


class TestLimits:
    def test_thread_limited_kernel(self):
        """Light kernel: 2048 threads / 256 per block = 8 blocks."""
        res = occupancy(KernelResources(block_threads=256, registers_per_thread=24))
        assert res.blocks_per_sm == 8
        assert res.limiter == "threads"
        assert res.occupancy == pytest.approx(1.0)

    def test_register_limited_kernel(self):
        """Heavy register use caps residency below the thread limit."""
        res = occupancy(KernelResources(block_threads=256, registers_per_thread=128))
        assert res.limiter == "registers"
        assert res.blocks_per_sm == 65536 // (128 * 256)
        assert res.occupancy < 1.0

    def test_shared_memory_limited(self):
        res = occupancy(
            KernelResources(block_threads=128, shared_per_block=32 * 1024)
        )
        assert res.limiter == "shared_memory"
        assert res.blocks_per_sm == 2

    def test_block_slot_limited(self):
        """Tiny blocks hit the 32-block cap before the thread cap."""
        res = occupancy(KernelResources(block_threads=32, registers_per_thread=16))
        assert res.limiter == "blocks"
        assert res.blocks_per_sm == 32
        assert res.warps_per_sm == 32

    def test_warps_capped_at_max(self):
        res = occupancy(KernelResources(block_threads=1024, registers_per_thread=16))
        assert res.warps_per_sm <= PASCAL_SM.max_warps


class TestHashKernelRelevance:
    def test_warpdrive_kernel_occupancy_full(self):
        """The probing kernel is light (few registers, no shared memory):
        it runs at full occupancy — why small |g| enjoys 'a higher group
        occupancy rate' (§V-B)."""
        res = occupancy(KernelResources(block_threads=256, registers_per_thread=32))
        assert res.occupancy == pytest.approx(1.0)

    def test_resident_groups_scale_inversely_with_group_size(self):
        res = occupancy(KernelResources())
        assert res.resident_groups(1) == 32 * res.resident_groups(32)
        assert res.resident_groups(4) == 8 * res.resident_groups(32)

    def test_chip_level_concurrency_supports_calibration(self):
        """P100: 56 SMs x 64 warps x 32 lanes ~ 115k resident threads —
        the basis for the bulk executor's wave-size bound."""
        res = occupancy(KernelResources(block_threads=256, registers_per_thread=32))
        resident_threads = 56 * res.warps_per_sm * 32
        assert 100_000 < resident_threads < 130_000


class TestValidation:
    def test_bad_block_threads(self):
        with pytest.raises(ConfigurationError):
            KernelResources(block_threads=100)

    def test_bad_registers(self):
        with pytest.raises(ConfigurationError):
            KernelResources(registers_per_thread=0)

    def test_resident_groups_validation(self):
        res = occupancy(KernelResources())
        with pytest.raises(ConfigurationError):
            res.resident_groups(0)
