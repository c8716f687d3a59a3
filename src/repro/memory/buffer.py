"""Host and device buffers with VRAM accounting.

A :class:`DeviceBuffer` registers its footprint with its owning
:class:`~repro.simt.device.Device` on construction and releases it on
:meth:`free` (or garbage collection), so experiments that overflow a
16 GB P100 fail the same way the real system would.  Buffers expose the
underlying NumPy array directly — kernels charge transaction counters
themselves, at the granularity they know (windows, batches).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DeviceError
from ..simt.device import Device

__all__ = ["HostBuffer", "DeviceBuffer"]


class HostBuffer:
    """Pinned host memory: a thin, typed wrapper over a NumPy array."""

    def __init__(self, array: np.ndarray):
        self.array = np.ascontiguousarray(array)

    @classmethod
    def empty(cls, size: int, dtype=np.uint64) -> "HostBuffer":
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        return cls(np.empty(size, dtype=dtype))

    @classmethod
    def zeros(cls, size: int, dtype=np.uint64) -> "HostBuffer":
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        return cls(np.zeros(size, dtype=dtype))

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def __len__(self) -> int:
        return int(self.array.shape[0])


class DeviceBuffer:
    """Global-memory allocation on a simulated GPU."""

    def __init__(self, device: Device, array: np.ndarray, *, nbytes: int | None = None):
        self.device = device
        self.array = np.ascontiguousarray(array)
        # a compact slot plane models fewer bytes than its host ndarray
        # physically occupies; ``nbytes`` overrides the registered
        # footprint with the modelled one (never more than physical)
        charged = int(self.array.nbytes) if nbytes is None else int(nbytes)
        if charged < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {charged}")
        # register only after a successful reservation, so a failed
        # allocation never releases VRAM it does not own at GC time
        self._registered = 0
        device.allocate(charged)
        self._registered = charged

    @classmethod
    def empty(cls, device: Device, size: int, dtype=np.uint64) -> "DeviceBuffer":
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        return cls(device, np.empty(size, dtype=dtype))

    @classmethod
    def zeros(cls, device: Device, size: int, dtype=np.uint64) -> "DeviceBuffer":
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        return cls(device, np.zeros(size, dtype=dtype))

    @classmethod
    def full(
        cls, device: Device, size: int, fill, dtype=np.uint64, *,
        nbytes: int | None = None,
    ) -> "DeviceBuffer":
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        return cls(device, np.full(size, fill, dtype=dtype), nbytes=nbytes)

    @property
    def nbytes(self) -> int:
        """Modelled (registered) footprint of this buffer."""
        return self._registered if self._registered else int(self.array.nbytes)

    @property
    def freed(self) -> bool:
        return self._registered == 0

    def free(self) -> None:
        """Release the VRAM reservation; the buffer becomes unusable."""
        if self._registered:
            self.device.free(self._registered)
            self._registered = 0
            self.array = np.empty(0, dtype=self.array.dtype)

    def require_live(self) -> None:
        if self.freed:
            raise DeviceError("operation on a freed DeviceBuffer")

    def __len__(self) -> int:
        return int(self.array.shape[0])

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.free()
        except Exception:
            pass
