"""Tests for translated hash families and double hashing pairs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hashing.families import HashFunction, make_double_family, make_hash
from repro.hashing.mixers import fmix32

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestHashFunction:
    def test_zero_translation_is_plain_mixer(self):
        h = make_hash("fmix32")
        xs = np.arange(100, dtype=np.uint32)
        assert (h(xs) == fmix32(xs)).all()

    def test_translated_variant_differs(self):
        h0 = make_hash("fmix32")
        h1 = h0.translated(1)
        xs = np.arange(1000, dtype=np.uint32)
        assert not (h0(xs) == h1(xs)).all()

    @given(u32, u32)
    def test_translation_definition(self, x, y):
        """h_y(x) = h(x + y) exactly (§V-A)."""
        h = HashFunction(fmix32, translation=y)
        expected = fmix32(np.uint32((x + y) & 0xFFFFFFFF))
        assert int(h(np.uint32(x))) == int(expected)

    def test_translated_stays_bijective(self):
        h = make_hash("mueller", translation=0x1234)
        xs = np.arange(1 << 14, dtype=np.uint32)
        assert np.unique(h(xs)).size == xs.size

    def test_unknown_mixer_rejected(self):
        with pytest.raises(ConfigurationError):
            make_hash("nonsense")


class TestDoubleHashFamily:
    def test_step_always_odd(self):
        fam = make_double_family()
        xs = np.arange(1 << 12, dtype=np.uint32)
        assert (fam.step(xs) & 1 == 1).all()

    def test_window_hash_attempt_zero_is_primary(self):
        fam = make_double_family()
        xs = np.arange(256, dtype=np.uint32)
        assert (fam.window_hash(xs, 0) == fam.primary(xs)).all()

    def test_window_hash_linear_in_attempt(self):
        fam = make_double_family()
        xs = np.arange(64, dtype=np.uint32)
        h1 = fam.window_hash(xs, 1)
        h2 = fam.window_hash(xs, 2)
        step = fam.step(xs)
        assert ((h2 - h1) == step).all()

    def test_negative_attempt_rejected(self):
        fam = make_double_family()
        with pytest.raises(ConfigurationError):
            fam.window_hash(np.arange(4, dtype=np.uint32), -1)

    def test_rebuilt_family_differs(self):
        fam = make_double_family()
        re = fam.rebuilt(0)
        xs = np.arange(1000, dtype=np.uint32)
        assert not (fam.primary(xs) == re.primary(xs)).all()
        assert not (fam.step(xs) == re.step(xs)).all()

    def test_rebuilt_salts_distinct(self):
        fam = make_double_family()
        xs = np.arange(1000, dtype=np.uint32)
        assert not (fam.rebuilt(1).primary(xs) == fam.rebuilt(2).primary(xs)).all()

    def test_same_mixer_pair_gets_separated(self):
        """Identical h and g would degrade to linear window stepping."""
        fam = make_double_family("fmix32", "fmix32")
        xs = np.arange(1000, dtype=np.uint32)
        assert not (fam.h(xs) == fam.g(xs)).all()

    def test_distinct_keys_get_distinct_steps_mostly(self):
        fam = make_double_family()
        xs = np.arange(1 << 12, dtype=np.uint32)
        steps = fam.step(xs)
        # not a constant-step (linear) scheme
        assert np.unique(steps).size > xs.size // 2
