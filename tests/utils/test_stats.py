"""Tests for statistics helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    cdf_points,
    geometric_mean,
    harmonic_mean,
    summarize,
)


class TestSummarize:
    def test_constant_sample(self):
        s = summarize(np.full(100, 5.0))
        assert s.mean == 5.0
        assert s.std == 0.0
        assert s.minimum == s.maximum == s.p50 == 5.0
        assert s.count == 100

    def test_empty_sample(self):
        s = summarize(np.empty(0))
        assert s.count == 0
        assert s.mean == 0.0

    def test_percentile_ordering(self):
        s = summarize(np.arange(1000, dtype=float))
        assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum

    def test_as_dict_keys(self):
        d = summarize(np.arange(5.0)).as_dict()
        assert set(d) == {"count", "mean", "std", "min", "p50", "p95", "p99", "max"}

    def test_accepts_integer_input(self):
        s = summarize(np.array([1, 2, 3]))
        assert s.mean == pytest.approx(2.0)


class TestMeans:
    def test_geometric_mean_of_reciprocals_is_one(self):
        vals = np.array([2.0, 0.5, 4.0, 0.25])
        assert geometric_mean(vals) == pytest.approx(1.0)

    def test_harmonic_mean_of_rates(self):
        # classic: half distance at 30, half at 60 -> 40
        assert harmonic_mean(np.array([30.0, 60.0])) == pytest.approx(40.0)

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean(np.array([1.0, 0.0]))

    def test_harmonic_rejects_empty(self):
        with pytest.raises(ValueError):
            harmonic_mean(np.array([]))

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=20)
    )
    def test_mean_inequality(self, values):
        arr = np.array(values)
        # harmonic <= geometric <= arithmetic
        assert harmonic_mean(arr) <= geometric_mean(arr) + 1e-9
        assert geometric_mean(arr) <= float(arr.mean()) + 1e-9


class TestCdf:
    def test_cdf_monotone(self):
        xs, fs = cdf_points(np.array([3.0, 1.0, 2.0]))
        assert xs.tolist() == [1.0, 2.0, 3.0]
        assert fs.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_empty(self):
        xs, fs = cdf_points(np.array([]))
        assert xs.size == fs.size == 0
