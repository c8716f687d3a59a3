"""Tests for k-mer extraction."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.kmers import (
    encode_bases,
    extract_kmers,
    kmer_to_string,
    pcie_amplification,
    random_dna,
)


class TestEncoding:
    def test_base_codes(self):
        assert encode_bases(b"ACGT").tolist() == [0, 1, 2, 3]

    def test_lowercase_accepted(self):
        assert encode_bases("acgt").tolist() == [0, 1, 2, 3]

    def test_non_acgt_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_bases(b"ACGN")


class TestExtraction:
    def test_count_is_n_minus_k_plus_one(self):
        """§IV-B: 'all n − k + 1 substrings of length k'."""
        seq = random_dna(100, seed=1)
        assert extract_kmers(seq, 8).size == 93

    def test_known_packing(self):
        # "ACGT" with k=4 -> 0b00_01_10_11 = 0x1B
        assert int(extract_kmers(b"ACGT", 4)[0]) == 0x1B

    def test_sliding_window(self):
        kmers = extract_kmers(b"AACGT", 4)
        assert kmer_to_string(int(kmers[0]), 4) == "AACG"
        assert kmer_to_string(int(kmers[1]), 4) == "ACGT"

    def test_roundtrip_strings(self):
        seq = random_dna(50, seed=2)
        kmers = extract_kmers(seq, 10)
        for i in (0, 20, 40):
            assert kmer_to_string(int(kmers[i]), 10) == seq[i : i + 10].decode()

    def test_k_bounds(self):
        with pytest.raises(ConfigurationError):
            extract_kmers(b"ACGT", 0)
        with pytest.raises(ConfigurationError):
            extract_kmers(b"ACGT" * 10, 16)  # 32 bits would hit sentinels

    def test_sequence_shorter_than_k(self):
        with pytest.raises(ConfigurationError):
            extract_kmers(b"ACG", 5)

    def test_keys_fit_table_key_space(self):
        from repro.utils.validation import check_keys

        kmers = extract_kmers(random_dna(1000, seed=3), 15)
        check_keys(kmers)  # must not raise

    def test_duplicate_kmers_preserved(self):
        kmers = extract_kmers(b"AAAAA", 3)
        assert (kmers == kmers[0]).all()


class TestAmplification:
    def test_roughly_k(self):
        """§IV-B: 'the effective transfer rate over the PCIe bus is
        artificially increased by a factor of approximately k'."""
        amp = pcie_amplification(1_000_000, 12)
        assert amp == pytest.approx(12, rel=0.01)

    def test_too_short(self):
        with pytest.raises(ConfigurationError):
            pcie_amplification(3, 5)


class TestRandomDna:
    def test_alphabet(self):
        seq = random_dna(1000, seed=4)
        assert set(seq) <= set(b"ACGT")

    def test_deterministic(self):
        assert random_dna(64, seed=5) == random_dna(64, seed=5)

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            random_dna(0)
