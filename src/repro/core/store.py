"""Slot storage policy — the memory layout behind a WarpDrive table.

WarpCore (Jünger et al.) shows the WarpDrive design decomposes into
orthogonal policies, storage layout being one of them.  This module is
that seam for the reproduction: a :class:`SlotStore` owns the slot
memory of one table and exposes it as a *packed view* — an
ndarray-like object over ``uint64`` packed pairs — which is the only
handle the kernels (:mod:`repro.core.bulk`,
:mod:`repro.core.kernels_ref`), the execution engine, the serializer,
and the sanitizer ever touch.  No module outside the store knows how
the bits are arranged.

Three layouts ship:

``aos`` (default)
    Packed array-of-structures: one ``uint64`` per slot, key in the
    high 32 bits — the paper's layout.  The packed view *is* the raw
    array (zero overhead).

``soa``
    Structure-of-arrays: two ``uint32`` planes (keys, values).  The
    :class:`SoAPackedView` packs/unpacks on access, bit-exactly — the
    sentinel encodings round-trip because the planes store the literal
    high/low halves of ``EMPTY_SLOT`` / ``TOMBSTONE_SLOT`` (both have
    key half ``0xFFFFFFFF``; they differ in the value half).

``compact``
    Quotienting layout (*Compact Parallel Hash Tables on the GPU*,
    PAPERS.md): a remainder+fingerprint plane plus a value plane.  The
    probe position already pins ``floor(log2 capacity)`` key bits (the
    quotient), so the modelled slot record only needs the remaining
    ``32 - floor(log2 c)`` remainder bits plus a
    :data:`FINGERPRINT_BITS`-bit fingerprint next to the 32-bit value —
    :func:`compact_slot_bits` / :func:`slot_record_bytes` give the
    modelled width, which drops below 8 bytes once the quotient pins
    more bits than the fingerprint adds (capacity ≥ 2^16).  Physically
    the plane stores ``σ(key-half)`` where σ is a fixed bijective
    32-bit mixer (:func:`repro.hashing.mixers.fmix32`): bijective means
    no information is lost — queries reconstruct the exact key half, so
    compact tables are *bit-exact*, not probabilistic, and the reserved
    key half ``0xFFFFFFFF`` maps to a reserved σ-image no legal key can
    produce, keeping the EMPTY/TOMBSTONE sentinel protocol intact
    (sentinels share the key half and differ in the value half, exactly
    as in ``soa``).  See ``docs/compact_layout.md``.

Every layout can live in plain memory or simulated VRAM
(:class:`~repro.memory.buffer.DeviceBuffer`); a device sanitizer
shadow-instruments the view in every combination.
"""

from __future__ import annotations

import numpy as np

from ..constants import EMPTY_SLOT
from ..errors import ConfigurationError

# NOTE: repro.sanitize imports repro.core (racecheck builds tables), so the
# shadow-instrumentation helpers are imported lazily at the few points a
# sanitizer is actually attached — never at module import.

__all__ = [
    "STORE_LAYOUTS",
    "FINGERPRINT_BITS",
    "SoAPackedView",
    "CompactPackedView",
    "SlotStore",
    "PackedSlotStore",
    "SplitSlotStore",
    "CompactSlotStore",
    "compact_slot_bits",
    "slot_record_bytes",
    "make_store",
]

_U64 = np.uint64
_U32 = np.uint32
_LOW_MASK = _U64(0xFFFFFFFF)
_SHIFT = _U64(32)

#: layouts :func:`make_store` accepts (the ``layout=`` option vocabulary)
STORE_LAYOUTS = ("aos", "soa", "compact")

#: fingerprint bits the compact record keeps next to the key remainder
FINGERPRINT_BITS = 8


def compact_slot_bits(capacity: int) -> int:
    """Modelled bits per slot of the compact layout at ``capacity``.

    The probe position pins ``floor(log2 capacity)`` quotient bits, so
    the record stores ``32 - floor(log2 c)`` remainder bits plus a
    :data:`FINGERPRINT_BITS` fingerprint (clamped to the 32-bit plane)
    next to the 32-bit value.
    """
    capacity = max(int(capacity), 1)
    quotient_bits = capacity.bit_length() - 1
    rq_bits = min(32, max(FINGERPRINT_BITS, 32 - quotient_bits + FINGERPRINT_BITS))
    return rq_bits + 32


def slot_record_bytes(layout: str, capacity: int) -> int:
    """Modelled bytes per slot record for ``layout`` at ``capacity``.

    ``aos``/``soa`` spend the full packed 8 bytes; ``compact`` spends
    ``ceil(compact_slot_bits / 8)`` — 7 bytes at 2^16 slots down to the
    5-byte floor at 2^32.  This is the figure the perf model, the
    exchange accounting, and :attr:`SlotStore.nbytes` all derive from.
    """
    if layout != "compact":
        return 8
    return -(-compact_slot_bits(capacity) // 8)


def _halves(value: int) -> tuple[int, int]:
    """(high, low) 32-bit halves of one packed slot word."""
    value = int(value)
    return (value >> 32) & 0xFFFFFFFF, value & 0xFFFFFFFF


def _sigma(keys32):
    """The fixed bijective key-half permutation of the compact layout."""
    from ..hashing.mixers import fmix32

    return fmix32(np.asarray(keys32, dtype=_U32))


def _sigma_inv(rq):
    """Inverse permutation: stored plane words back to true key halves."""
    from ..hashing.mixers import fmix32_inverse

    return fmix32_inverse(np.asarray(rq, dtype=_U32))


def _sigma_scalar(key_half: int) -> int:
    return int(_sigma(np.asarray([key_half], dtype=_U32))[0])


class SoAPackedView:
    """ndarray-like packed ``uint64`` facade over split key/value planes.

    Supports exactly the access grammar the kernels use on a raw slot
    array — ``shape``/``dtype``/``len``, scalar and fancy ``[]`` get/set,
    ``fill``, and ``__array__`` (so :func:`repro.core.slots.is_vacant`
    and friends work unchanged).  Plain accesses report to an attached
    sanitizer with the same lane-attribution rules as
    :class:`~repro.sanitize.shadow.ShadowedArray`, against *logical slot
    indices* — races are a property of the slot, not of the plane.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, sanitizer=None,
                 name: str = "slots"):
        if keys.shape != values.shape:
            raise ConfigurationError("key/value planes must have equal shape")
        self._keys = keys
        self._values = values
        self.sanitizer = sanitizer
        self.shadow_name = name

    # -- ndarray protocol surface ----------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._keys.shape

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint64)

    def __len__(self) -> int:
        return int(self._keys.shape[0])

    def __array__(self, dtype=None, copy=None):
        packed = (self._keys.astype(_U64) << _SHIFT) | self._values.astype(
            _U64
        )
        return packed if dtype is None else packed.astype(dtype)

    def _record(self, index, kind: str) -> None:
        sanitizer = self.sanitizer
        if sanitizer is not None and sanitizer.plain_enabled:
            from ..sanitize.shadow import AccessKind, _index_rows

            lane_attributed = isinstance(index, np.ndarray) and index.ndim == 1
            sanitizer.record_plain(
                self.shadow_name,
                _index_rows(self.shape[0], index),
                AccessKind.READ if kind == "read" else AccessKind.WRITE,
                lanes_positional=lane_attributed,
            )

    def __getitem__(self, index):
        self._record(index, "read")
        k = self._keys[index]
        v = self._values[index]
        if isinstance(k, np.ndarray):
            return (k.astype(_U64) << _SHIFT) | v.astype(_U64)
        return _U64((int(k) << 32) | int(v))

    def __setitem__(self, index, value) -> None:
        self._record(index, "write")
        packed = np.asarray(value, dtype=_U64)
        self._keys[index] = (packed >> _SHIFT).astype(_U32)
        self._values[index] = (packed & _LOW_MASK).astype(_U32)

    def fill(self, value) -> None:
        hi, lo = _halves(value)
        self._keys.fill(_U32(hi))
        self._values.fill(_U32(lo))

    # comparisons pack first, so ``view == TOMBSTONE_SLOT`` scans work
    # exactly like on a raw packed array (no sanitizer traffic: the
    # packed copy is register state, same as a window snapshot)
    def __eq__(self, other):
        return np.asarray(self) == other

    def __ne__(self, other):
        return np.asarray(self) != other

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SoAPackedView(capacity={len(self)})"


class CompactPackedView:
    """Packed ``uint64`` facade over the compact remainder/value planes.

    Same access grammar as :class:`SoAPackedView`; the key half is
    stored σ-permuted in the ``_rq`` plane and reconstructed through the
    inverse permutation on every read, so kernels see exact packed
    words.  ``record_bytes`` carries the modelled record width for the
    kernels' transaction charging.
    """

    def __init__(self, rq: np.ndarray, values: np.ndarray, sanitizer=None,
                 name: str = "slots"):
        if rq.shape != values.shape:
            raise ConfigurationError(
                "remainder/value planes must have equal shape"
            )
        self._rq = rq
        self._values = values
        self.sanitizer = sanitizer
        self.shadow_name = name
        self.record_bytes = slot_record_bytes("compact", rq.shape[0])

    # -- ndarray protocol surface ----------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._rq.shape

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint64)

    def __len__(self) -> int:
        return int(self._rq.shape[0])

    def __array__(self, dtype=None, copy=None):
        packed = (_sigma_inv(self._rq).astype(_U64) << _SHIFT) | (
            self._values.astype(_U64)
        )
        return packed if dtype is None else packed.astype(dtype)

    def _record(self, index, kind: str) -> None:
        sanitizer = self.sanitizer
        if sanitizer is not None and sanitizer.plain_enabled:
            from ..sanitize.shadow import AccessKind, _index_rows

            lane_attributed = isinstance(index, np.ndarray) and index.ndim == 1
            sanitizer.record_plain(
                self.shadow_name,
                _index_rows(self.shape[0], index),
                AccessKind.READ if kind == "read" else AccessKind.WRITE,
                lanes_positional=lane_attributed,
            )

    def __getitem__(self, index):
        self._record(index, "read")
        rq = self._rq[index]
        v = self._values[index]
        if isinstance(rq, np.ndarray):
            return (_sigma_inv(rq).astype(_U64) << _SHIFT) | v.astype(_U64)
        key_half = int(_sigma_inv(np.asarray([rq], dtype=_U32))[0])
        return _U64((key_half << 32) | int(v))

    def __setitem__(self, index, value) -> None:
        self._record(index, "write")
        packed = np.asarray(value, dtype=_U64)
        self._rq[index] = _sigma((packed >> _SHIFT).astype(_U32))
        self._values[index] = (packed & _LOW_MASK).astype(_U32)

    def fill(self, value) -> None:
        hi, lo = _halves(value)
        self._rq.fill(_U32(_sigma_scalar(hi)))
        self._values.fill(_U32(lo))

    def __eq__(self, other):
        return np.asarray(self) == other

    def __ne__(self, other):
        return np.asarray(self) != other

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactPackedView(capacity={len(self)}, "
            f"record_bytes={self.record_bytes})"
        )


class SlotStore:
    """Owner of one table's slot memory, behind a packed view.

    Concrete stores provide ``_allocate``/``_release`` and the packed
    ``view`` construction; everything else — fill/clear, packed
    import/export — is layout-independent here.
    """

    layout: str = "abstract"

    def __init__(self, capacity: int, *, device=None, sanitizer=None):
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.device = device
        self.sanitizer = sanitizer
        self._buffers: list = []
        self._view = None
        self._allocate()

    # -- subclass hooks ---------------------------------------------------

    def _allocate(self) -> None:
        raise NotImplementedError

    def packed(self) -> np.ndarray:
        """The slot contents as one packed ``uint64`` array."""
        raise NotImplementedError

    def load_packed(self, packed: np.ndarray) -> None:
        """Overwrite the slot contents from a packed ``uint64`` array."""
        raise NotImplementedError

    # -- shared surface ---------------------------------------------------

    @property
    def view(self):
        """The packed slot view every kernel operates on."""
        return self._view

    @property
    def nbytes(self) -> int:
        """Modelled slot memory footprint, derived from the layout.

        ``capacity * slot_record_bytes(layout, capacity)`` — 8 bytes per
        slot for ``aos``/``soa``, the quotiented sub-8-byte record for
        ``compact``.  The perf model reads this (via
        ``HashTableConfig.table_bytes`` / ``WarpDriveHashTable.table_bytes``)
        rather than assuming a constant.
        """
        return self.capacity * slot_record_bytes(self.layout, self.capacity)

    @property
    def record_bytes(self) -> int:
        """Modelled bytes per slot record (see :func:`slot_record_bytes`)."""
        return slot_record_bytes(self.layout, self.capacity)

    def fill(self, value=EMPTY_SLOT) -> None:
        self._view.fill(value)

    def free(self) -> None:
        """Release VRAM reservations and the slot planes."""
        for buf in self._buffers:
            buf.free()
        self._buffers = []
        self._release()

    def _release(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"layout={self.layout!r})"
        )


class PackedSlotStore(SlotStore):
    """The paper's layout: one packed ``uint64`` word per slot."""

    layout = "aos"

    def _wrap(self, raw: np.ndarray):
        if self.sanitizer is None:
            return raw
        from ..sanitize.shadow import ShadowedArray

        return ShadowedArray(raw, self.sanitizer)

    def _allocate(self) -> None:
        from ..memory.buffer import DeviceBuffer

        if self.device is not None:
            buf = DeviceBuffer.full(
                self.device, self.capacity, EMPTY_SLOT, dtype=np.uint64
            )
            self._buffers.append(buf)
            self._raw = buf.array
        else:
            self._raw = np.full(self.capacity, EMPTY_SLOT, dtype=np.uint64)
        self._view = self._wrap(self._raw)

    def packed(self) -> np.ndarray:
        return self._raw

    def load_packed(self, packed: np.ndarray) -> None:
        self._raw[:] = np.asarray(packed, dtype=np.uint64)

    def _release(self) -> None:
        self._raw = np.empty(0, dtype=np.uint64)
        self._view = self._wrap(self._raw)


class SplitSlotStore(SlotStore):
    """Structure-of-arrays layout: separate key and value planes."""

    layout = "soa"

    def _allocate(self) -> None:
        from ..memory.buffer import DeviceBuffer

        hi, lo = _halves(EMPTY_SLOT)
        if self.device is not None:
            kbuf = DeviceBuffer.full(
                self.device, self.capacity, hi, dtype=np.uint32
            )
            vbuf = DeviceBuffer.full(
                self.device, self.capacity, lo, dtype=np.uint32
            )
            self._buffers.extend([kbuf, vbuf])
            self._k, self._v = kbuf.array, vbuf.array
        else:
            self._k = np.full(self.capacity, hi, dtype=np.uint32)
            self._v = np.full(self.capacity, lo, dtype=np.uint32)
        self._view = SoAPackedView(self._k, self._v, sanitizer=self.sanitizer)

    def packed(self) -> np.ndarray:
        return np.asarray(self._view, dtype=np.uint64)

    def load_packed(self, packed: np.ndarray) -> None:
        packed = np.asarray(packed, dtype=np.uint64)
        self._k[:] = (packed >> _SHIFT).astype(np.uint32)
        self._v[:] = (packed & _LOW_MASK).astype(np.uint32)

    def _release(self) -> None:
        self._k = np.empty(0, dtype=np.uint32)
        self._v = np.empty(0, dtype=np.uint32)
        self._view = SoAPackedView(self._k, self._v, sanitizer=self.sanitizer)


class CompactSlotStore(SlotStore):
    """Quotienting layout: σ-permuted remainder plane + value plane.

    Physically the planes are two ``uint32`` arrays (same shapes as
    ``soa``), but the *modelled* footprint registered against simulated
    VRAM is ``capacity * slot_record_bytes("compact", capacity)`` — the
    remainder+fingerprint plane only owes its quotiented width.
    """

    layout = "compact"

    def _plane_bytes(self) -> tuple[int, int]:
        """Modelled (rq-plane, value-plane) VRAM bytes."""
        record = slot_record_bytes("compact", self.capacity)
        return self.capacity * (record - 4), self.capacity * 4

    def _allocate(self) -> None:
        from ..memory.buffer import DeviceBuffer

        hi, lo = _halves(EMPTY_SLOT)
        rq_fill = _sigma_scalar(hi)
        rq_bytes, v_bytes = self._plane_bytes()
        if self.device is not None:
            rqbuf = DeviceBuffer.full(
                self.device, self.capacity, rq_fill, dtype=np.uint32,
                nbytes=rq_bytes,
            )
            vbuf = DeviceBuffer.full(
                self.device, self.capacity, lo, dtype=np.uint32, nbytes=v_bytes
            )
            self._buffers.extend([rqbuf, vbuf])
            self._rq, self._v = rqbuf.array, vbuf.array
        else:
            self._rq = np.full(self.capacity, rq_fill, dtype=np.uint32)
            self._v = np.full(self.capacity, lo, dtype=np.uint32)
        self._view = CompactPackedView(
            self._rq, self._v, sanitizer=self.sanitizer
        )

    def packed(self) -> np.ndarray:
        return np.asarray(self._view, dtype=np.uint64)

    def load_packed(self, packed: np.ndarray) -> None:
        packed = np.asarray(packed, dtype=np.uint64)
        self._rq[:] = _sigma((packed >> _SHIFT).astype(np.uint32))
        self._v[:] = (packed & _LOW_MASK).astype(np.uint32)

    def _release(self) -> None:
        self._rq = np.empty(0, dtype=np.uint32)
        self._v = np.empty(0, dtype=np.uint32)
        self._view = CompactPackedView(
            self._rq, self._v, sanitizer=self.sanitizer
        )


_STORES = {
    "aos": PackedSlotStore,
    "soa": SplitSlotStore,
    "compact": CompactSlotStore,
}


def make_store(
    capacity: int,
    *,
    layout: str = "aos",
    device=None,
    sanitizer=None,
) -> SlotStore:
    """Build the slot store for one table (the ``layout=`` policy)."""
    try:
        cls = _STORES[layout]
    except KeyError:
        raise ConfigurationError(
            f"unknown slot layout {layout!r}; choose from {STORE_LAYOUTS}"
        ) from None
    return cls(capacity, device=device, sanitizer=sanitizer)

