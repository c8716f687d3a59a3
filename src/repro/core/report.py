"""Per-kernel work reports.

Every bulk operation (insert / query / erase, reference or fast kernels)
returns a :class:`KernelReport` describing exactly how much simulated
device work it performed.  The performance model consumes these to
project paper-scale throughput; the tests consume them to check executor
equivalence and probing-cost theory.  Like every report type in the
repo, it implements the :class:`repro.obs.Reportable` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.protocol import reportable_dict

__all__ = ["KernelReport"]


@dataclass
class KernelReport:
    """Work accounting for one bulk table operation.

    ``probe_windows[i]`` is the number of windows key ``i`` examined; the
    histogram of this array is the probing-length distribution that drives
    both the perf model and the Fig. 7 group-size trade-off.
    """

    #: operation label: "insert", "query", "erase"
    op: str
    #: number of key(-value) items processed
    num_ops: int = 0
    #: windows examined per item (length == num_ops)
    probe_windows: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: 32-byte sectors loaded / stored
    load_sectors: int = 0
    store_sectors: int = 0
    #: CAS traffic
    cas_attempts: int = 0
    cas_successes: int = 0
    #: ballots / any / shfl issued
    warp_collectives: int = 0
    #: items that failed (insert: p_max exhausted; query: key absent)
    failed: int = 0
    #: group size the kernel ran with
    group_size: int = 0
    #: sectors served from *host* memory over PCIe (out-of-core tables —
    #: Stadium hashing's host-resident table keeps only its ticket board
    #: in VRAM)
    host_load_sectors: int = 0
    host_store_sectors: int = 0

    schema_version = 1

    @classmethod
    def empty(cls, op: str, group_size: int = 0) -> "KernelReport":
        """A zero-work report for a shard that received no items."""
        return cls(op=op, num_ops=0, group_size=group_size)

    def charge_to(self, counter) -> None:
        """Add this kernel's work to a transaction counter (one launch).

        Shard engines run kernels without a counter (pool threads may run
        them concurrently) and charge the owning device afterwards — in
        shard order, so totals are identical across backends.
        """
        counter.load_sectors += self.load_sectors
        counter.store_sectors += self.store_sectors
        counter.cas_attempts += self.cas_attempts
        counter.cas_successes += self.cas_successes
        counter.warp_collectives += self.warp_collectives
        counter.window_probes += self.total_windows
        counter.kernel_launches += 1

    @property
    def total_windows(self) -> int:
        return int(self.probe_windows.sum()) if self.probe_windows.size else 0

    @property
    def mean_windows(self) -> float:
        if self.probe_windows.size == 0:
            return 0.0
        return float(self.probe_windows.mean())

    @property
    def max_windows(self) -> int:
        if self.probe_windows.size == 0:
            return 0
        return int(self.probe_windows.max())

    @property
    def total_sectors(self) -> int:
        return self.load_sectors + self.store_sectors

    @property
    def bytes_touched(self) -> int:
        from ..constants import SECTOR_BYTES

        return self.total_sectors * SECTOR_BYTES

    def window_histogram(self) -> np.ndarray:
        """Counts of items by windows probed (index = window count)."""
        if self.probe_windows.size == 0:
            return np.zeros(1, dtype=np.int64)
        return np.bincount(self.probe_windows.astype(np.int64))

    def merge(self, other: "KernelReport") -> "KernelReport":
        """Combine reports of the same op across batches or devices."""
        return KernelReport(
            op=self.op,
            num_ops=self.num_ops + other.num_ops,
            probe_windows=np.concatenate([self.probe_windows, other.probe_windows]),
            load_sectors=self.load_sectors + other.load_sectors,
            store_sectors=self.store_sectors + other.store_sectors,
            cas_attempts=self.cas_attempts + other.cas_attempts,
            cas_successes=self.cas_successes + other.cas_successes,
            warp_collectives=self.warp_collectives + other.warp_collectives,
            failed=self.failed + other.failed,
            group_size=self.group_size or other.group_size,
            host_load_sectors=self.host_load_sectors + other.host_load_sectors,
            host_store_sectors=self.host_store_sectors + other.host_store_sectors,
        )

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys)."""
        return reportable_dict(
            self,
            {
                "op": self.op,
                "num_ops": self.num_ops,
                "mean_windows": self.mean_windows,
                "max_windows": self.max_windows,
                "total_windows": self.total_windows,
                "load_sectors": self.load_sectors,
                "store_sectors": self.store_sectors,
                "cas_attempts": self.cas_attempts,
                "cas_successes": self.cas_successes,
                "warp_collectives": self.warp_collectives,
                "failed": self.failed,
                "group_size": self.group_size,
                "host_load_sectors": self.host_load_sectors,
                "host_store_sectors": self.host_store_sectors,
            },
        )

    def as_dict(self) -> dict[str, float | int | str]:
        """Deprecated alias for :meth:`to_dict` (pre-``repro.obs`` name)."""
        return self.to_dict()
