"""Skew-aware hot-key cache tier: set-associative slots, TinyLFU admission.

Zipfian "millions of users" traffic concentrates on a small set of hot
keys; serving those straight from the front-end keeps them from
hammering the cascade (ROADMAP item 1, cf. WarpCore's batched-lookup
emphasis in PAPERS.md).  The tier must beat the (vectorized) cascade on
wall clock, so every operation is a handful of flat numpy passes — no
per-key Python, no sorted-array rebuilds, no binary searches:

* **2-way set-associative residency**: a key hashes to one set and may
  live in either of its two ways.  A batch lookup is a multiply-shift
  hash, four gathers, and a compare — a few ns/key, an order of
  magnitude cheaper than ``searchsorted`` into a sorted residency map,
  and the whole structure stays small enough to sit in L2.
* a **count-min sketch** estimating per-key touch frequency in O(1)
  space.  Every lookup counts a 1-in-``sketch_sample`` systematic
  sample of its keys (hits *and* misses — a resident key must keep
  accruing frequency or it would eventually lose its slot to warm tail
  keys), and the whole sketch halves once enough touches accumulate,
  so estimates track the recent traffic mix instead of all history.
* **TinyLFU admission**: a missed key becomes a *candidate* once its
  sketch estimate reaches ``promote_after``.  A candidate takes an
  empty way if its set has one; otherwise it duels the set's
  lower-frequency occupant and displaces it only on a strictly higher
  estimate — one-hit-wonder tail keys can never churn out a genuinely
  hot resident.

Coherence contract: the server invalidates (:meth:`HotKeyCache
.invalidate`) every key touched by an insert or erase *before* the
mutation's reply is sent, and only admits values read from the table in
the same coalesced batch — so a cached hit can never be staler than the
latest committed mutation (property-tested against a reference
simulator in ``tests/serve/test_cache_properties.py``).

Only *found* keys are cached: negative caching would have to be
invalidated on insert of a previously-missing key, which the sketch
cannot see; the miss path stays a cascade.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..obs.protocol import reportable_dict

__all__ = ["CacheStats", "HotKeyCache"]

#: odd multipliers for the sketch's row hashes (splitmix-derived)
_ROW_SALTS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)

_MASK32 = np.uint64(0xFFFFFFFF)


@dataclass
class CacheStats:
    """Point-in-time accounting snapshot of one cache tier."""

    hits: int = 0
    misses: int = 0
    admitted: int = 0
    evicted: int = 0
    invalidated: int = 0
    size: int = 0
    capacity: int = 0

    schema_version = 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return reportable_dict(
            self,
            {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "admitted": self.admitted,
                "evicted": self.evicted,
                "invalidated": self.invalidated,
                "size": self.size,
                "capacity": self.capacity,
            },
        )


class HotKeyCache:
    """Bounded key → value cache with frequency-gated admission.

    Parameters
    ----------
    capacity:
        Maximum resident entries.  Rounded down to a multiple of the
        associativity (2) so the slot grid is rectangular; a capacity
        of 1 degenerates to a single direct-mapped slot.
    promote_after:
        Sketch-estimated touches a key needs before it becomes an
        admission candidate.  ``1`` admits on first sight; the default
        ``2`` keeps single-shot keys from even being considered.
        Estimates count *sampled* touches (see ``sketch_sample``).
    sketch_width, sketch_depth:
        Count-min sketch geometry (default 4×4096).
    sketch_sample:
        Count every ``sketch_sample``-th key of each lookup batch into
        the sketch (systematic sampling).  Relative frequencies — all
        admission ever compares — are preserved, at 1/sample the
        counting cost.  Pass ``1`` for exact counting (the property
        tests do).
    """

    def __init__(
        self,
        capacity: int,
        *,
        promote_after: int = 2,
        sketch_width: int = 4096,
        sketch_depth: int = 4,
        sketch_sample: int = 8,
    ):
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        if promote_after < 1:
            raise ConfigurationError(
                f"promote_after must be >= 1, got {promote_after}"
            )
        if sketch_depth < 1 or sketch_depth > len(_ROW_SALTS):
            raise ConfigurationError(
                f"sketch_depth must be in [1, {len(_ROW_SALTS)}], "
                f"got {sketch_depth}"
            )
        if sketch_width < 1:
            raise ConfigurationError(
                f"sketch_width must be >= 1, got {sketch_width}"
            )
        if sketch_sample < 1:
            raise ConfigurationError(
                f"sketch_sample must be >= 1, got {sketch_sample}"
            )
        self._ways = 1 if capacity < 2 else 2
        self._sets = max(1, int(capacity) // self._ways)
        self.capacity = self._ways * self._sets
        self.promote_after = int(promote_after)
        self._width = int(sketch_width)
        self._depth = int(sketch_depth)
        self._sample = int(sketch_sample)
        self._sketch = np.zeros((self._depth, self._width), dtype=np.uint32)
        #: slot grid, shape (ways, sets); a slot is live where _occ is set
        self._keys = np.zeros((self._ways, self._sets), dtype=np.uint32)
        self._vals = np.zeros((self._ways, self._sets), dtype=np.uint32)
        self._occ = np.zeros((self._ways, self._sets), dtype=bool)
        #: sampled touches between sketch halvings (frequency aging)
        self._touches = 0
        self._reset_every = max(32 * self.capacity, 4 * self._width)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.admitted = 0
        self.evicted = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return int(self._occ.sum())

    # -- hashing --------------------------------------------------------------

    @staticmethod
    def _mix(keys: np.ndarray) -> np.ndarray:
        """32-bit multiplicative mix, uniform enough for slot spreading."""
        x = keys.astype(np.uint64) * np.uint64(_ROW_SALTS[0])
        x &= _MASK32
        x ^= x >> np.uint64(15)
        return x

    def _set_of(self, keys: np.ndarray) -> np.ndarray:
        """Home set per key via fixed-point range scaling (no modulo)."""
        return (
            (self._mix(keys) * np.uint64(self._sets)) >> np.uint64(32)
        ).astype(np.intp)

    def _cols(self, keys: np.ndarray) -> np.ndarray:
        """Per-row sketch columns for a key batch, shape (depth, n)."""
        k = keys.astype(np.uint64, copy=False)
        cols = np.empty((self._depth, k.shape[0]), dtype=np.intp)
        for d in range(self._depth):
            mixed = (k * np.uint64(_ROW_SALTS[d])) & _MASK32
            mixed ^= mixed >> np.uint64(15)
            cols[d] = (mixed % np.uint64(self._width)).astype(np.intp)
        return cols

    # -- sketch ---------------------------------------------------------------

    def _touch_sketch(self, keys: np.ndarray) -> None:
        """Count a systematic sample of the batch (one C pass per row)."""
        sampled = keys[:: self._sample]
        if sampled.size == 0:
            return
        cols = self._cols(sampled)
        for d in range(self._depth):
            self._sketch[d] += np.bincount(
                cols[d], minlength=self._width
            ).astype(np.uint32)
        self._touches += int(sampled.size)
        if self._touches >= self._reset_every:
            # aging: halve everything so estimates follow recent traffic
            self._sketch >>= 1
            self._touches = 0

    def _estimates(self, keys: np.ndarray) -> np.ndarray:
        """Count-min estimates (min over rows), shape (n,)."""
        cols = self._cols(keys)
        est = self._sketch[0, cols[0]].copy()
        for d in range(1, self._depth):
            np.minimum(est, self._sketch[d, cols[d]], out=est)
        return est

    # -- lookups --------------------------------------------------------------

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Serve a key batch from the resident tier.

        Returns ``(values, hit)``: ``values[i]`` is valid where
        ``hit[i]``; missed positions are zero.  Every lookup feeds the
        frequency sketch (sampled), hits included — residency is
        defended by frequency, so hot keys must keep counting.
        """
        n = int(len(keys))
        if n == 0:
            return np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=bool)
        keys = np.asarray(keys, dtype=np.uint32)
        with self._lock:
            s = self._set_of(keys)
            hit0 = self._occ[0, s] & (self._keys[0, s] == keys)
            values = np.where(hit0, self._vals[0, s], 0).astype(np.uint32)
            hit = hit0
            for w in range(1, self._ways):
                hitw = self._occ[w, s] & (self._keys[w, s] == keys)
                values = np.where(hitw, self._vals[w, s], values)
                hit = hit | hitw
            self._touch_sketch(keys)
            nhits = int(hit.sum())
            self.hits += nhits
            self.misses += n - nhits
        return values, hit

    # -- maintenance ----------------------------------------------------------

    def admit(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Offer table-read ``(key, value)`` pairs for residency.

        Keys whose sketch estimate reaches ``promote_after`` become
        candidates.  A candidate takes an empty way in its home set
        when one exists; against a full set it duels the occupant with
        the lower estimate and wins only on a strictly greater one
        (TinyLFU).  Duplicate keys in the batch collapse to the last
        occurrence.  Returns the number of slots (re)filled.
        """
        n = int(len(keys))
        if n == 0:
            return 0
        keys = np.asarray(keys, dtype=np.uint32)
        values = np.asarray(values, dtype=np.uint32)
        with self._lock:
            cand_est = self._estimates(keys)
            eligible = cand_est >= self.promote_after
            if not eligible.any():
                return 0
            keys = keys[eligible]
            values = values[eligible]
            cand_est = cand_est[eligible]
            s = self._set_of(keys)
            if self._ways == 1:
                way = np.zeros(keys.size, dtype=np.intp)
                occupied = self._occ[0, s]
                occ_est = np.where(
                    occupied, self._estimates(self._keys[0, s]), 0
                )
            else:
                occ0 = self._occ[0, s]
                occ1 = self._occ[1, s]
                est0 = np.where(occ0, self._estimates(self._keys[0, s]), 0)
                est1 = np.where(occ1, self._estimates(self._keys[1, s]), 0)
                # empty way first, else the weaker occupant is the victim
                way = np.where(
                    ~occ0, 0, np.where(~occ1, 1, np.where(est1 < est0, 1, 0))
                ).astype(np.intp)
                occupied = occ0 & occ1
                occ_est = np.where(way == 0, est0, est1)
            # refreshing an already-resident key is always allowed
            refresh = self._keys[way, s] == keys
            take = refresh | ~occupied | (cand_est > occ_est)
            if not take.any():
                return 0
            w = way[take]
            i = s[take]
            displaced = int(
                (self._occ[w, i] & ~refresh[take]).sum()
            )
            self._keys[w, i] = keys[take]
            self._vals[w, i] = values[take]
            self._occ[w, i] = True
            placed = int(take.sum())
            self.admitted += placed
            self.evicted += displaced
            return placed

    def invalidate(self, keys: np.ndarray) -> int:
        """Drop every listed key from residency (insert/erase coherence)."""
        keys = np.asarray(keys, dtype=np.uint32)
        if keys.size == 0:
            return 0
        with self._lock:
            s = self._set_of(keys)
            dropped = 0
            for w in range(self._ways):
                gone = self._occ[w, s] & (self._keys[w, s] == keys)
                if gone.any():
                    self._occ[w, s[gone]] = False
                    dropped += int(gone.sum())
            self.invalidated += dropped
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._occ[:] = False
            self._sketch[:] = 0
            self._touches = 0

    # -- reporting ------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                admitted=self.admitted,
                evicted=self.evicted,
                invalidated=self.invalidated,
                size=int(self._occ.sum()),
                capacity=self.capacity,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HotKeyCache(size={int(self._occ.sum())}/{self.capacity}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
