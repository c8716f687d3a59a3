"""Single-pass counting-sort scatter (Ashkiani-style multisplit core).

The fused alternative to iterating :func:`~repro.primitives.compact.compact_fast`
once per class: one histogram, one exclusive scan, and one stable scatter
by bin id produce the identical partition-grouped output in a single
sweep of the input.  *GPU Multisplit* (Ashkiani et al., PAPERS.md) shows
this shape beating consecutive binary splits; WarpCore's fused routing
kernels follow the same design.

The modelled device work is deliberately **not** the single-pass cost:
WarpDrive's paper commits to the simpler m-binary-split scheme ("our
approach ... consecutively computes m binary splits"), so this primitive
charges the exact closed form of that algorithm — ``num_bins`` read
sweeps over the input, one compacting store per class, and one
warp-aggregated atomic per coalesced group per class present — making it
bit-compatible with the ``num_bins × compact_fast`` reference while the
host-side execution is one pass.  Equivalence is property-tested in
``tests/primitives/test_scatter.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import SECTOR_BYTES, WARP_SIZE
from ..errors import ConfigurationError
from ..simt.counters import TransactionCounter

__all__ = ["CountingScatterResult", "counting_scatter"]

#: bin-id dtypes small enough for NumPy's O(n) radix argsort — the
#: narrowest one that holds every bin id minimizes sort passes
_RADIX_DTYPES = (np.uint8, np.uint16)


def _popcount_sum(masks: np.ndarray) -> int:
    """Total set bits across an array of uint64 bitmasks."""
    arr = np.ascontiguousarray(np.atleast_1d(masks))
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(arr).sum())
    return int(np.unpackbits(arr.view(np.uint8)).sum())  # pragma: no cover


@dataclass(frozen=True)
class CountingScatterResult:
    """Bin-grouped values plus the bookkeeping a multisplit needs."""

    #: values reordered so bin 0 comes first, then bin 1, ... (stable)
    values: np.ndarray
    #: original position of each reordered element
    source_index: np.ndarray
    #: per-bin element counts, shape (num_bins,)
    counts: np.ndarray
    #: exclusive prefix of counts
    offsets: np.ndarray
    #: warp-aggregated fetch-adds the modelled m-binary-split would issue
    atomics_used: int


def _count_group_class_pairs(
    b: np.ndarray, n: int, num_bins: int, group_size: int
) -> int:
    """Distinct ``(group, class)`` pairs — one warp-aggregated fetch-add
    each in the modelled m-binary-split."""
    if n == 0:
        return 0
    if num_bins <= 64:
        # per-group class bitmasks: OR-reduce then popcount — avoids the
        # (num_groups x num_bins) presence matrix and the group-id division
        for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
            if num_bins <= np.dtype(dt).itemsize * 8:
                break
        codes = np.left_shift(dt(1), b.astype(dt))
        full = (n // group_size) * group_size
        atomics = 0
        if full:
            ors = np.bitwise_or.reduce(
                codes[:full].reshape(-1, group_size), axis=1
            )
            atomics += _popcount_sum(ors)
        if full < n:
            atomics += _popcount_sum(np.bitwise_or.reduce(codes[full:]))
        return atomics
    num_groups = (n + group_size - 1) // group_size  # pragma: no cover
    present = np.zeros((num_groups, num_bins), dtype=bool)
    present[np.arange(n, dtype=np.int64) // group_size, b] = True
    return int(present.sum())


def counting_scatter(
    values: np.ndarray,
    bins: np.ndarray,
    num_bins: int,
    *,
    counter: TransactionCounter | None = None,
    group_size: int = WARP_SIZE,
) -> CountingScatterResult:
    """Stable-scatter ``values`` into ``num_bins`` groups in one pass.

    Histogram → exclusive scan → stable scatter: the output is exactly
    ``concatenate([values[bins == b] for b in range(num_bins)])`` with
    matching ``source_index``, computed without the per-bin sweeps.  The
    work charged to ``counter`` is the m-binary-split closed form (see
    module docstring), identical to running ``compact_fast`` once per bin.
    """
    arr = np.asarray(values)
    b = np.asarray(bins, dtype=np.int64)
    if arr.shape != b.shape or arr.ndim != 1:
        raise ConfigurationError("values and bins must be equal-length 1-D")
    if num_bins < 1:
        raise ConfigurationError(f"num_bins must be >= 1, got {num_bins}")
    if group_size < 1 or group_size > 64:
        raise ConfigurationError(f"group_size must be in [1, 64], got {group_size}")
    if b.size and (b.min() < 0 or b.max() >= num_bins):
        raise ConfigurationError("bins out of range")

    n = arr.shape[0]
    # compiled single-pass histogram + stable scatter when the kernel
    # library is loaded (same permutation, counts, and offsets as the sort below —
    # property-tested in tests/primitives/test_scatter.py)
    from ..core.kernels_jit import scatter_permutation

    compiled = scatter_permutation(b, num_bins)
    if compiled is not None:
        src, counts, offsets = compiled
    else:
        counts = np.bincount(b, minlength=num_bins).astype(np.int64)
        offsets = np.zeros(num_bins, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])

        # stable argsort by bin id == per-bin ascending source indices
        # concatenated in bin order; a narrow dtype selects radix sort (O(n))
        for radix_dtype in _RADIX_DTYPES:
            if num_bins <= np.iinfo(radix_dtype).max + 1:
                sort_key = b.astype(radix_dtype)
                break
        else:  # pragma: no cover - beyond any realistic GPU count
            sort_key = b
        src = np.argsort(sort_key, kind="stable").astype(np.int64, copy=False)
    out = arr[src]

    atomics = _count_group_class_pairs(b, n, num_bins, group_size)

    if counter is not None:
        counter.atomic_adds += atomics
        counter.warp_collectives += atomics
        # m read sweeps of the full input ...
        counter.charge_load(num_bins * math.ceil(max(arr.nbytes, 1) / SECTOR_BYTES))
        # ... and one compacting store per class, rounded up per class
        itemsize = arr.dtype.itemsize
        counter.charge_store(
            int(
                np.sum(
                    np.ceil(np.maximum(counts * itemsize, 1) / SECTOR_BYTES)
                ).astype(np.int64)
            )
        )
    return CountingScatterResult(
        values=out,
        source_index=src,
        counts=counts,
        offsets=offsets,
        atomics_used=atomics,
    )
