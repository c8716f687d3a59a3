"""Tests for host/device buffers and VRAM accounting."""

import numpy as np
import pytest

from repro.errors import AllocationError, ConfigurationError, DeviceError
from repro.memory.buffer import DeviceBuffer, HostBuffer
from repro.simt.device import Device, GPUSpec


class TestHostBuffer:
    def test_empty_and_zeros(self):
        assert len(HostBuffer.empty(10)) == 10
        assert (HostBuffer.zeros(5).array == 0).all()

    def test_nbytes(self):
        assert HostBuffer.empty(4, dtype=np.uint64).nbytes == 32

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            HostBuffer.empty(-1)

    def test_wraps_contiguously(self):
        arr = np.arange(10)[::2]  # non-contiguous view
        buf = HostBuffer(arr)
        assert buf.array.flags["C_CONTIGUOUS"]


class TestDeviceBuffer:
    def test_registers_vram(self, p100_device):
        buf = DeviceBuffer.zeros(p100_device, 1000, dtype=np.uint64)
        assert p100_device.allocated_bytes == 8000
        buf.free()
        assert p100_device.allocated_bytes == 0
        assert buf.freed

    def test_double_free_is_idempotent(self, p100_device):
        buf = DeviceBuffer.zeros(p100_device, 10)
        buf.free()
        buf.free()
        assert p100_device.allocated_bytes == 0

    def test_use_after_free_rejected(self, p100_device):
        buf = DeviceBuffer.zeros(p100_device, 10)
        buf.free()
        with pytest.raises(DeviceError):
            buf.require_live()

    def test_oversized_allocation_fails(self):
        tiny = Device(0, GPUSpec(name="tiny", vram_bytes=64, mem_bandwidth=1e9))
        with pytest.raises(AllocationError):
            DeviceBuffer.zeros(tiny, 100, dtype=np.uint64)

    def test_full_fill_value(self, p100_device):
        buf = DeviceBuffer.full(p100_device, 5, 7, dtype=np.uint64)
        assert (buf.array == 7).all()

    def test_full_takes_footprint(self, p100_device):
        buf = DeviceBuffer.full(p100_device, 16, 3, dtype=np.uint32)
        assert p100_device.allocated_bytes == 64
        assert (buf.array == 3).all()

    def test_many_tables_exhaust_vram(self):
        """A card fits two ~40% tables but not three (proportional to the
        P100 16 GB / ~7 GB table scenario, scaled down to stay cheap)."""
        spec = GPUSpec(name="mini-p100", vram_bytes=16 * 1024, mem_bandwidth=1e9)
        dev = Device(0, spec)
        slots = (7 * 1024) // 8
        bufs = [DeviceBuffer.empty(dev, slots) for _ in range(2)]
        with pytest.raises(AllocationError):
            DeviceBuffer.empty(dev, slots)
        for b in bufs:
            b.free()
