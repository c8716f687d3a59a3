"""Tests for memcpy accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memory.buffer import DeviceBuffer, HostBuffer
from repro.memory.transfer import MemcpyKind, TransferLog, memcpy
from repro.perfmodel.specs import P100
from repro.simt.device import Device


@pytest.fixture
def devices():
    return Device(0, P100), Device(1, P100)


class TestKindInference:
    def test_h2d(self, devices):
        host = HostBuffer(np.arange(8, dtype=np.uint64))
        dev = DeviceBuffer.zeros(devices[0], 8)
        rec = memcpy(dev, host)
        assert rec.kind is MemcpyKind.H2D
        assert rec.src_device is None and rec.dst_device == 0
        assert (dev.array == host.array).all()

    def test_d2h(self, devices):
        dev = DeviceBuffer.full(devices[0], 4, 7)
        host = HostBuffer.zeros(4)
        assert memcpy(host, dev).kind is MemcpyKind.D2H
        assert (host.array == dev.array).all()

    def test_d2d_same_gpu(self, devices):
        a = DeviceBuffer.full(devices[0], 4, 7)
        b = DeviceBuffer.zeros(devices[0], 4)
        assert memcpy(b, a).kind is MemcpyKind.D2D

    def test_p2p_across_gpus(self, devices):
        a = DeviceBuffer.full(devices[0], 4, 7)
        b = DeviceBuffer.zeros(devices[1], 4)
        rec = memcpy(b, a)
        assert rec.kind is MemcpyKind.P2P
        assert rec.src_device == 0 and rec.dst_device == 1

    def test_host_to_host_rejected(self):
        a, b = HostBuffer.zeros(4), HostBuffer.zeros(4)
        with pytest.raises(ConfigurationError):
            memcpy(a, b)


class TestWindows:
    def test_partial_copy_with_offsets(self, devices):
        src = HostBuffer(np.arange(10, dtype=np.uint64))
        dst = DeviceBuffer.zeros(devices[0], 10)
        rec = memcpy(dst, src, count=3, src_offset=2, dst_offset=5)
        assert dst.array[5:8].tolist() == [2, 3, 4]
        assert rec.nbytes == 24

    def test_out_of_range_rejected(self, devices):
        src = HostBuffer.zeros(4)
        dst = DeviceBuffer.zeros(devices[0], 4)
        with pytest.raises(ConfigurationError):
            memcpy(dst, src, count=5)

    def test_dtype_mismatch_rejected(self, devices):
        src = HostBuffer(np.zeros(4, dtype=np.uint32))
        dst = DeviceBuffer.zeros(devices[0], 4, dtype=np.uint64)
        with pytest.raises(ConfigurationError):
            memcpy(dst, src)

    def test_freed_buffer_rejected(self, devices):
        src = HostBuffer.zeros(4)
        dst = DeviceBuffer.zeros(devices[0], 4)
        dst.free()
        with pytest.raises(Exception):
            memcpy(dst, src)


class TestTransferLog:
    def test_bytes_by_kind(self, devices):
        log = TransferLog()
        host = HostBuffer(np.arange(8, dtype=np.uint64))
        dev = DeviceBuffer.zeros(devices[0], 8)
        memcpy(dev, host, log=log)
        memcpy(host, dev, log=log)
        by_kind = log.bytes_by_kind()
        assert by_kind[MemcpyKind.H2D] == 64
        assert by_kind[MemcpyKind.D2H] == 64
        assert log.total_bytes() == 128
        assert log.total_bytes(MemcpyKind.H2D) == 64

    def test_p2p_matrix(self, devices):
        log = TransferLog()
        a = DeviceBuffer.full(devices[0], 4, 7)
        b = DeviceBuffer.zeros(devices[1], 4)
        memcpy(b, a, log=log)
        mat = log.p2p_matrix(2)
        assert mat[0, 1] == 32 and mat[1, 0] == 0

    def test_clear_and_len(self, devices):
        log = TransferLog()
        host = HostBuffer.zeros(2)
        dev = DeviceBuffer.zeros(devices[0], 2)
        memcpy(dev, host, log=log)
        assert len(log) == 1
        log.clear()
        assert len(log) == 0
