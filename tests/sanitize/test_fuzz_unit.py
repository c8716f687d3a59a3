"""Fast unit tests for the fuzz harness internals (tier-1 scope).

Full differential fuzzing runs live in ``tests/fuzz`` behind the
``fuzz`` marker; this file covers the deterministic plumbing — case
derivation, workload shapes, diffing, shrinking candidates, and the
corpus format — cheaply enough for every tier-1 run.
"""

import json

import numpy as np
import pytest

from repro.sanitize import fuzz
from repro.sanitize.fuzz import (
    CHECK_NAMES,
    FuzzCase,
    FuzzFailure,
    _diff,
    _shrink_candidates,
    _workload,
    load_corpus,
    run_case,
    run_fuzz,
)


class TestCaseDerivation:
    def test_same_seed_same_case(self):
        assert FuzzCase.from_seed(42) == FuzzCase.from_seed(42)

    def test_different_seeds_vary_parameters(self):
        cases = {FuzzCase.from_seed(s) for s in range(40)}
        assert len({c.n for c in cases}) > 1
        assert len({c.skew for c in cases}) > 1
        assert len({c.m for c in cases}) > 1

    def test_round_trips_through_dict(self):
        case = FuzzCase.from_seed(7)
        assert FuzzCase.from_dict(case.to_dict()) == case

    def test_describe_surfaces_the_scheduler_seed(self):
        case = FuzzCase.from_seed(3)
        assert f"scheduler_seed={case.scheduler_seed}" in case.describe()
        assert f"seed={case.seed}" in case.describe()


class TestWorkloads:
    @pytest.mark.parametrize("skew", ["unique", "uniform", "zipf", "dup"])
    def test_shapes_and_disjoint_absent_keys(self, skew):
        case = FuzzCase(
            seed=5, n=48, group_size=4, load_factor=0.75, skew=skew,
            tombstone_ratio=0.25, m=2, scheduler_seed=1,
        )
        keys, values, absent = _workload(case)
        assert keys.shape == values.shape == (48,)
        assert keys.dtype == np.uint32
        assert absent.size > 0
        assert not np.isin(absent, keys).any()

    def test_unique_skew_has_no_duplicates(self):
        case = FuzzCase(
            seed=5, n=48, group_size=4, load_factor=0.75, skew="unique",
            tombstone_ratio=0.0, m=1, scheduler_seed=1,
        )
        keys, _, _ = _workload(case)
        assert np.unique(keys).size == keys.size

    def test_dup_skew_duplicates_heavily(self):
        case = FuzzCase(
            seed=5, n=48, group_size=4, load_factor=0.75, skew="dup",
            tombstone_ratio=0.0, m=1, scheduler_seed=1,
        )
        keys, _, _ = _workload(case)
        assert np.unique(keys).size < keys.size


class TestDiff:
    def test_equal_arrays_pass(self):
        assert _diff("x", np.array([1, 2]), np.array([1, 2])) is None

    def test_mismatch_reports_first_index(self):
        msg = _diff("x", np.array([1, 2, 3]), np.array([1, 9, 3]))
        assert "x" in msg and "[1]" in msg

    def test_shape_mismatch_reported(self):
        assert "shape" in _diff("x", np.zeros(2), np.zeros(3))


class TestShrinking:
    def test_candidates_are_strictly_simpler(self):
        case = FuzzCase(
            seed=1, n=240, group_size=32, load_factor=0.92, skew="zipf",
            tombstone_ratio=0.5, m=8, scheduler_seed=9,
        )
        for cand in _shrink_candidates(case):
            assert (
                cand.n < case.n
                or cand.m < case.m
                or cand.group_size < case.group_size
                or cand.skew != case.skew
                or cand.tombstone_ratio < case.tombstone_ratio
                or cand.load_factor < case.load_factor
            )
            assert cand.seed == case.seed  # workload stream is preserved

    def test_minimal_case_has_no_candidates(self):
        case = FuzzCase(
            seed=1, n=12, group_size=2, load_factor=0.35, skew="unique",
            tombstone_ratio=0.0, m=1, scheduler_seed=9,
        )
        assert list(_shrink_candidates(case)) == []


class TestCorpusAndMessages:
    def test_missing_or_corrupt_corpus_loads_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope.json")["entries"] == []
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_corpus(bad)["entries"] == []

    def test_run_fuzz_writes_replayable_entries(self, tmp_path, monkeypatch):
        """A failing case is appended after the committed entries, in a
        form that re-derives the same case."""
        corpus = tmp_path / "corpus.json"
        committed = {"version": 1, "entries": [
            {"case": FuzzCase.from_seed(0).to_dict(), "status": "ok"}
        ]}
        corpus.write_text(json.dumps(committed))

        def fail_seed_one(case):
            if case.seed == 1:
                return FuzzFailure(case=case, check="query", detail="boom")
            return None

        monkeypatch.setattr(fuzz, "run_case", fail_seed_one)
        result = run_fuzz(max_cases=2, corpus_path=corpus, shrink_failures=False)
        assert result.cases_run == 2 and len(result.failures) == 1
        assert result.corpus_path == str(corpus)
        entries = json.loads(corpus.read_text())["entries"]
        assert [e["status"] for e in entries] == ["fail", "ok"]
        assert entries[0]["check"] == "query"
        assert FuzzCase.from_dict(entries[0]["case"]) == FuzzCase.from_seed(1)

    def test_clean_run_leaves_the_corpus_untouched(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        original = json.dumps({"version": 1, "entries": []}) + "\n"
        corpus.write_text(original)
        result = run_fuzz(max_cases=2, corpus_path=corpus, shrink_failures=False)
        assert result.ok and result.cases_run == 2
        assert result.corpus_path is None
        assert corpus.read_text() == original
        # no corpus file appears where there was none either
        result = run_fuzz(
            max_cases=1, corpus_path=tmp_path / "new.json",
            shrink_failures=False,
        )
        assert result.ok and not (tmp_path / "new.json").exists()

    def test_failure_message_has_replay_instructions(self):
        case = FuzzCase.from_seed(11)
        failure = FuzzFailure(case=case, check="query", detail="boom")
        msg = failure.message()
        assert "repro fuzz --replay 11" in msg
        assert "scheduler_seed" in msg

    def test_check_battery_is_complete(self):
        assert CHECK_NAMES == (
            "insert-export",
            "query",
            "erase-tombstone",
            "multisplit",
            "distributed",
        )

    def test_one_clean_case_passes(self):
        assert run_case(FuzzCase.from_seed(0)) is None
