"""Property tests: counting_scatter == num_bins × compact_fast.

``counting_scatter`` resolves a compiled single-pass histogram+scatter
(:func:`repro.core.kernels_jit.scatter_permutation`) whenever the C
kernel library is loaded, falling back to the stable-argsort path otherwise;
``TestCompiledPermutation`` pins the two paths to the same permutation.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core.kernels_jit import (
    compiled_available,
    reverse_gather_fill,
    scatter_permutation,
)
from repro.errors import ConfigurationError
from repro.primitives.compact import compact_fast
from repro.primitives.scatter import counting_scatter
from repro.simt.counters import TransactionCounter


def reference_scatter(values, bins, num_bins, counter, group_size):
    """The m-binary-split oracle: one compact_fast sweep per bin."""
    chunks, sources, counts = [], [], np.zeros(num_bins, dtype=np.int64)
    atomics = 0
    for b in range(num_bins):
        res = compact_fast(values, bins == b, counter=counter, group_size=group_size)
        chunks.append(res.values)
        sources.append(res.source_index)
        counts[b] = res.values.shape[0]
        atomics += res.atomics_used
    out = np.concatenate(chunks) if chunks else np.empty(0, dtype=values.dtype)
    src = np.concatenate(sources) if sources else np.empty(0, dtype=np.int64)
    offsets = np.zeros(num_bins, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return out, src, counts, offsets, atomics


class TestEquivalence:
    @given(
        n=st.integers(min_value=0, max_value=400),
        num_bins=st.integers(min_value=1, max_value=9),
        group_size=st.sampled_from([1, 4, 32]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @examples(60)
    def test_matches_m_compact_fast_passes(self, n, num_bins, group_size, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        bins = rng.integers(0, num_bins, size=n, dtype=np.int64)

        ref_counter, fused_counter = TransactionCounter(), TransactionCounter()
        out, src, counts, offsets, atomics = reference_scatter(
            values, bins, num_bins, ref_counter, group_size
        )
        cs = counting_scatter(
            values, bins, num_bins, counter=fused_counter, group_size=group_size
        )
        assert (cs.values == out).all()
        assert (cs.source_index == src).all()
        assert (cs.counts == counts).all()
        assert (cs.offsets == offsets).all()
        assert cs.atomics_used == atomics
        assert fused_counter.snapshot() == ref_counter.snapshot()

    def test_skewed_all_one_bin(self):
        values = np.arange(100, dtype=np.uint64)
        bins = np.full(100, 2, dtype=np.int64)
        counter = TransactionCounter()
        cs = counting_scatter(values, bins, 4, counter=counter, group_size=32)
        assert (cs.values == values).all()
        assert cs.counts.tolist() == [0, 0, 100, 0]
        # each group has exactly one class present: 4 groups of 32
        assert cs.atomics_used == 4

    def test_empty_input_charges_like_reference(self):
        ref_counter, fused_counter = TransactionCounter(), TransactionCounter()
        empty = np.empty(0, dtype=np.uint64)
        bins = np.empty(0, dtype=np.int64)
        reference_scatter(empty, bins, 3, ref_counter, 32)
        cs = counting_scatter(empty, bins, 3, counter=fused_counter, group_size=32)
        assert cs.values.size == 0 and cs.counts.tolist() == [0, 0, 0]
        assert fused_counter.snapshot() == ref_counter.snapshot()

    def test_stability_within_bin(self):
        values = np.array([10, 11, 12, 13, 14, 15], dtype=np.uint64)
        bins = np.array([1, 0, 1, 0, 1, 0], dtype=np.int64)
        cs = counting_scatter(values, bins, 2)
        assert cs.values.tolist() == [11, 13, 15, 10, 12, 14]
        assert cs.source_index.tolist() == [1, 3, 5, 0, 2, 4]


class TestCompiledPermutation:
    """The compiled permutation ≡ the stable-argsort path, bit for bit."""

    @pytest.mark.skipif(
        not compiled_available(), reason="C kernel library unavailable"
    )
    @given(
        n=st.integers(min_value=0, max_value=500),
        num_bins=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @examples(40)
    def test_matches_stable_argsort(self, n, num_bins, seed):
        rng = np.random.default_rng(seed)
        bins = rng.integers(0, num_bins, size=n, dtype=np.int64)
        result = scatter_permutation(bins, num_bins)
        assert result is not None
        src, counts, offsets = result
        assert (src == np.argsort(bins, kind="stable")).all()
        assert (counts == np.bincount(bins, minlength=num_bins)).all()
        expected_off = np.zeros(num_bins, dtype=np.int64)
        np.cumsum(counts[:-1], out=expected_off[1:])
        assert (offsets == expected_off).all()

    def test_no_provider_returns_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "none")
        assert scatter_permutation(np.zeros(4, dtype=np.int64), 2) is None

    @pytest.mark.skipif(
        not compiled_available(), reason="C kernel library unavailable"
    )
    @given(
        n=st.integers(min_value=0, max_value=300),
        num_bins=st.integers(min_value=1, max_value=9),
        group_size=st.sampled_from([1, 4, 32]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @examples(30)
    def test_counting_scatter_identical_with_provider_off(
        self, n, num_bins, group_size, seed
    ):
        """Same outputs *and* modelled counters whether the compiled
        permutation or the argsort fallback serviced the call."""
        import os
        from unittest import mock

        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        bins = rng.integers(0, num_bins, size=n, dtype=np.int64)

        on_counter = TransactionCounter()
        on = counting_scatter(
            values, bins, num_bins, counter=on_counter, group_size=group_size
        )
        off_counter = TransactionCounter()
        with mock.patch.dict(os.environ, {"REPRO_JIT_PROVIDER": "none"}):
            off = counting_scatter(
                values, bins, num_bins, counter=off_counter, group_size=group_size
            )
        assert (on.values == off.values).all()
        assert (on.source_index == off.source_index).all()
        assert (on.counts == off.counts).all()
        assert (on.offsets == off.offsets).all()
        assert on.atomics_used == off.atomics_used
        assert on_counter.snapshot() == off_counter.snapshot()


def reference_gather_fill(counts, bases):
    """The vectorized oracle: per-partition arange runs, concatenated."""
    runs = [
        np.arange(int(b), int(b) + int(c), dtype=np.int64)
        for c, b in zip(counts, bases)
    ]
    return (
        np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
    )


class TestCompiledReverseGather:
    """The compiled reverse-gather fill ≡ the vectorized path, bit for bit."""

    @pytest.mark.skipif(
        not compiled_available(), reason="C kernel library unavailable"
    )
    @given(
        num_parts=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @examples(40)
    def test_matches_vectorized_fill(self, num_parts, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 50, size=num_parts).astype(np.int64)
        bases = rng.integers(0, 1 << 40, size=num_parts).astype(np.int64)
        expected = reference_gather_fill(counts, bases)
        out = np.empty(int(counts.sum()), dtype=np.int64)
        assert reverse_gather_fill(counts, bases, out)
        assert (out == expected).all()

    def test_no_provider_returns_false_untouched(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "none")
        out = np.full(5, -7, dtype=np.int64)
        counts = np.array([2, 3], dtype=np.int64)
        bases = np.array([10, 100], dtype=np.int64)
        assert not reverse_gather_fill(counts, bases, out)
        assert (out == -7).all()

    def test_empty_partitions(self):
        out = np.empty(0, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        # provider availability decides True/False; either way no write
        reverse_gather_fill(empty, empty, out)
        assert out.size == 0


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            counting_scatter(np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.int64), 2)

    def test_bins_out_of_range(self):
        with pytest.raises(ConfigurationError):
            counting_scatter(np.zeros(3, dtype=np.uint64), np.array([0, 1, 2]), 2)

    def test_bad_group_size(self):
        with pytest.raises(ConfigurationError):
            counting_scatter(
                np.zeros(3, dtype=np.uint64), np.zeros(3, dtype=np.int64), 2,
                group_size=65,
            )

    def test_bad_num_bins(self):
        with pytest.raises(ConfigurationError):
            counting_scatter(np.zeros(3, dtype=np.uint64), np.zeros(3, dtype=np.int64), 0)
