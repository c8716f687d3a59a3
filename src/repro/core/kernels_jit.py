"""Compiled bulk kernels — the ``kernels="compiled"`` backend.

The fast bulk executors of :mod:`repro.core.bulk` interpret the probing
policy with vectorized NumPy passes; this module runs the *same*
wave/round algorithm as scalar C loops, WarpCore-style: specialize once,
launch many times.  The compiled loops are **bit-identical** to the fast
kernels — final slot contents, per-item statuses, probe-window arrays,
and every :class:`~repro.core.report.KernelReport` counter field
(property-tested in ``tests/core/test_compiled_kernels.py`` and
``tests/exec/test_compiled_equivalence.py``).

Provider
--------
One compiled provider, ``cc``: :mod:`repro.core._jit_cc` holds the C
transcription, builds it once into a shared library disk-cached by
source hash under ``REPRO_JIT_CACHE_DIR`` (default
``~/.cache/repro-jit``), and the wrappers below launch it through
ctypes.  ``REPRO_JIT_PROVIDER`` (``cc`` | ``none``) pins the choice;
``none`` forces the fallback.

Fallback rules
--------------
:func:`resolve_kernels` maps a requested backend to the one that can
actually run, warning once per call-site owner:

* the library is unavailable (``REPRO_JIT_PROVIDER=none``, no C
  compiler, or a compiler that fails to build it) → ``"fast"``;
* sanitizer-instrumented slot stores → ``"fast"`` (compiled loops
  bypass the shadow instrumentation, so racecheck must keep the
  vectorized path).

The library is built or loaded once per process under a ``jit_compile``
observability span; :func:`warm` does so eagerly, so first-call compile
time never pollutes measured kernel rows.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from ..errors import ConfigurationError
from ..memory.layout import pack_pairs
from ..simt.counters import TransactionCounter
from ..utils.validation import check_keys, check_same_length, check_values
from . import _jit_cc
from .bulk import (
    STATUS,
    _merge_counter,
    _record_bytes,
    _sectors_per_window,
    default_wave_size,
)
from .probing import WindowSequence
from .report import KernelReport

__all__ = [
    "active_provider",
    "compiled_available",
    "resolve_kernels",
    "reset_fallback_warnings",
    "slot_planes",
    "warm",
    "bulk_insert_compiled",
    "bulk_query_compiled",
    "bulk_erase_compiled",
    "scatter_permutation",
    "reverse_gather_fill",
]

#: dummy planes for the layout that is not in use
_NO_U64 = np.empty(0, dtype=np.uint64)
_NO_U32 = np.empty(0, dtype=np.uint32)

#: the C side's layout mode flag (compact shares the SoA plane geometry)
_LAYOUT_FLAG = {"aos": 0, "soa": 1, "compact": 2}

#: call sites that already warned about a fallback
_WARNED: set[tuple[str, str]] = set()


# -- provider resolution --------------------------------------------------


def _library():
    """The loaded kernel library, or None when compiled kernels are off."""
    forced = os.environ.get("REPRO_JIT_PROVIDER", "").strip().lower()
    if forced == "none":
        return None
    if forced not in ("", "cc"):
        raise ConfigurationError(
            f"REPRO_JIT_PROVIDER must be 'cc' or 'none', got {forced!r}"
        )
    return _jit_cc.load()


def active_provider() -> str | None:
    """``"cc"`` when ``kernels="compiled"`` can run, None when it falls back."""
    return "cc" if _library() is not None else None


def compiled_available() -> bool:
    """True when ``kernels="compiled"`` would not fall back."""
    return _library() is not None


def warm() -> bool:
    """Build or load the kernel library now (once per process).

    Returns True when the compiled path is live, False when it would
    fall back — callers warm before timing so the first measured launch
    never pays the build.
    """
    return compiled_available()


def slot_planes(slots):
    """Raw storage planes of a slot view, or None when unsupported.

    Returns ``(layout, packed_u64, key_plane, value_plane)`` for a plain
    AoS array, an unsanitized SoA view, or an unsanitized compact view
    — whose key plane holds σ-permuted remainder words, so the wrappers
    σ-encode probe keys to match
    (:class:`~repro.core.store.CompactPackedView`).
    Sanitizer-instrumented views (``ShadowedArray``, shadowed SoA or
    compact views) return None: the compiled loops cannot record shadow
    accesses, so the caller must fall back to the instrumented fast path.
    """
    if isinstance(slots, np.ndarray):
        if slots.dtype == np.uint64 and slots.ndim == 1:
            return ("aos", slots, _NO_U32, _NO_U32)
        return None
    if getattr(slots, "sanitizer", None) is not None:
        return None
    values = getattr(slots, "_values", None)
    if values is None:
        return None
    keys = getattr(slots, "_keys", None)
    if keys is not None:
        return ("soa", _NO_U64, keys, values)
    rq = getattr(slots, "_rq", None)
    if rq is not None:
        return ("compact", _NO_U64, rq, values)
    return None


def _warn_once(key: tuple[str, str], message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def reset_fallback_warnings() -> None:
    """Forget which owners warned (test isolation)."""
    _WARNED.clear()


def resolve_kernels(kernels: str, *, slots=None, owner: str = "repro"):
    """Map a requested kernel backend to the one that can actually run.

    Anything but ``"compiled"`` passes through untouched.  A
    ``"compiled"`` request resolves to ``"compiled"`` when the kernel
    library is loaded and the slot store (if given) exposes raw planes;
    otherwise it warns **once per owner** and resolves to ``"fast"`` —
    reports and spans must record the *resolved* value, never the
    requested one.
    """
    if kernels != "compiled":
        return kernels
    if _library() is None:
        reason = _jit_cc._ERROR or "REPRO_JIT_PROVIDER=none"
        _warn_once(
            (owner, "unavailable"),
            f"{owner}: kernels='compiled' requested but the compiled kernel "
            f"library is unavailable ({reason}); falling back to "
            "kernels='fast'",
        )
        return "fast"
    if slots is not None and slot_planes(slots) is None:
        _warn_once(
            (owner, "sanitized"),
            f"{owner}: kernels='compiled' cannot run on sanitizer-"
            "instrumented slot stores (compiled loops bypass the shadow "
            "tracker); falling back to kernels='fast'",
        )
        return "fast"
    return "compiled"


def _require_library():
    lib = _library()
    if lib is None:
        raise ConfigurationError(
            "kernels='compiled' has no kernel library; call "
            "resolve_kernels() first to fall back to 'fast'"
        )
    return lib


def _check(status: int) -> None:
    if status != 0:
        raise MemoryError("compiled kernel could not allocate scratch memory")


# -- compiled host primitives ---------------------------------------------


def scatter_permutation(bins: np.ndarray, num_bins: int):
    """Stable bin-order permutation, compiled: ``(src, counts, offsets)``.

    Histogram → exclusive scan → stable scatter in one pass — the exact
    permutation ``np.argsort(bins, kind="stable")`` produces, plus the
    per-bin counts and exclusive offsets, without a sort.  Returns
    ``None`` when the kernel library is unavailable, so
    :func:`repro.primitives.scatter.counting_scatter` can keep its
    vectorized path as the fallback.
    """
    lib = _library()
    if lib is None:
        return None
    b = np.ascontiguousarray(bins, dtype=np.int64)
    n = int(b.shape[0])
    src = np.empty(n, dtype=np.int64)
    counts = np.zeros(num_bins, dtype=np.int64)
    offsets = np.zeros(num_bins, dtype=np.int64)
    _check(lib.repro_counting_scatter(b, n, num_bins, src, counts, offsets))
    return src, counts, offsets


def reverse_gather_fill(
    counts: np.ndarray, bases: np.ndarray, out: np.ndarray
) -> bool:
    """Compiled reverse-gather index fill for the fused exchange.

    Writes the concatenation of ``arange(bases[p], bases[p]+counts[p])``
    over all partitions into ``out`` (int64, preallocated to
    ``counts.sum()``) — the flat gather indices one source GPU's answers
    return through in
    :func:`repro.multigpu.alltoall.transpose_exchange_fast`.  Returns
    False when the kernel library is unavailable, so the caller keeps
    its vectorized per-partition fill as the fallback.  Both legs are
    property-tested identical (``tests/primitives/test_scatter.py``).
    """
    lib = _library()
    if lib is None:
        return False
    c = np.ascontiguousarray(counts, dtype=np.int64)
    b = np.ascontiguousarray(bases, dtype=np.int64)
    _check(lib.repro_reverse_gather(c, b, int(c.shape[0]), out))
    return True


# -- public kernel entry points -------------------------------------------


def _planes_or_raise(slots):
    planes = slot_planes(slots)
    if planes is None:
        raise ConfigurationError(
            "compiled kernels need a plain AoS slot array or an "
            "unsanitized SoA/compact view; resolve_kernels() falls back "
            "to 'fast' for instrumented stores"
        )
    return planes


def _probe_keys(layout: str, k: np.ndarray) -> np.ndarray:
    """Keys in the domain the slot planes store — σ-encoded for compact."""
    if layout != "compact":
        return k
    from .store import _sigma

    return np.ascontiguousarray(_sigma(k))


def _launch_args(slots, seq: WindowSequence, keys: np.ndarray):
    """The leading C arguments every probe loop takes (layout flag,
    planes, capacity, probing parameters), the hash walk ``(h1, step)``,
    and the probe keys in the planes' domain (σ-encoded for compact)."""
    k = np.ascontiguousarray(keys)
    layout, packed, kp, vp = _planes_or_raise(slots)
    h1, step = seq.hash_cache(k)
    head = (
        _LAYOUT_FLAG[layout], packed, kp, vp, slots.shape[0],
        seq.group_size, seq.inner_count, seq.max_windows,
    )
    return head, h1, step, _probe_keys(layout, k)


def _report(op, probes, counters, failed, seq, counter) -> KernelReport:
    report = KernelReport(
        op=op,
        num_ops=probes.shape[0],
        probe_windows=probes,
        load_sectors=int(counters[0]),
        store_sectors=int(counters[1]),
        cas_attempts=int(counters[2]),
        cas_successes=int(counters[3]),
        warp_collectives=int(counters[4]),
        failed=failed,
        group_size=seq.group_size,
    )
    _merge_counter(counter, report)
    return report


def bulk_insert_compiled(
    slots,
    seq: WindowSequence,
    keys: np.ndarray,
    values: np.ndarray,
    counter: TransactionCounter | None = None,
    *,
    wave_size: int | None = None,
) -> tuple[KernelReport, np.ndarray]:
    """Compiled :func:`repro.core.bulk.bulk_insert` — identical contract."""
    k = check_keys(keys)
    v = check_values(values)
    check_same_length("keys", k, "values", v)
    lib = _require_library()
    head, h1, step, ek = _launch_args(slots, seq, k)
    n = k.shape[0]
    capacity = slots.shape[0]
    wave = (
        default_wave_size(capacity)
        if wave_size is None
        else max(int(wave_size), 1)
    )
    spw = _sectors_per_window(seq.group_size, _record_bytes(slots))
    status = np.zeros(n, dtype=np.uint8)
    probes = np.zeros(n, dtype=np.int64)
    counters = np.zeros(5, dtype=np.int64)
    _check(lib.repro_insert(
        *head, wave, spw, n, h1, step, ek, pack_pairs(ek, v),
        status, probes, counters,
    ))
    failed = int(np.sum(status == STATUS["failed"]))
    return _report("insert", probes, counters, failed, seq, counter), status


def bulk_query_compiled(
    slots,
    seq: WindowSequence,
    keys: np.ndarray,
    counter: TransactionCounter | None = None,
    default: int = 0,
) -> tuple[KernelReport, np.ndarray, np.ndarray]:
    """Compiled :func:`repro.core.bulk.bulk_query` — identical contract."""
    k = check_keys(keys)
    lib = _require_library()
    head, h1, step, ek = _launch_args(slots, seq, k)
    n = k.shape[0]
    spw = _sectors_per_window(seq.group_size, _record_bytes(slots))
    out_values = np.full(n, default, dtype=np.uint32)
    found = np.zeros(n, dtype=np.bool_)
    probes = np.zeros(n, dtype=np.int64)
    counters = np.zeros(5, dtype=np.int64)
    _check(lib.repro_query(
        *head, spw, n, h1, step, ek, out_values, found.view(np.uint8),
        probes, counters,
    ))
    failed = int(np.sum(~found))
    report = _report("query", probes, counters, failed, seq, counter)
    return report, out_values, found


def bulk_erase_compiled(
    slots,
    seq: WindowSequence,
    keys: np.ndarray,
    counter: TransactionCounter | None = None,
) -> tuple[KernelReport, np.ndarray]:
    """Compiled :func:`repro.core.bulk.bulk_erase` — identical contract."""
    k = check_keys(keys)
    lib = _require_library()
    head, h1, step, ek = _launch_args(slots, seq, k)
    n = k.shape[0]
    spw = _sectors_per_window(seq.group_size, _record_bytes(slots))
    erased = np.zeros(n, dtype=np.bool_)
    probes = np.zeros(n, dtype=np.int64)
    counters = np.zeros(5, dtype=np.int64)
    _check(lib.repro_erase(
        *head, spw, n, h1, step, ek, erased.view(np.uint8), probes, counters,
    ))
    failed = int(np.sum(~erased))
    return _report("erase", probes, counters, failed, seq, counter), erased
