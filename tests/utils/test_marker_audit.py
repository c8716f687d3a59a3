"""Audit of the pytest marker configuration and test-time budget.

Tier-1 is ``pytest -q`` with ``-m 'not slow and not fuzz'``: anything
expensive must carry the (registered) ``slow`` marker, differential
fuzz runs must carry ``fuzz``, and the hypothesis property tests that
guard the fused distribution path must keep their example counts small
enough to stay inside the tier-1 budget.  ``TREE_AUDIT`` keeps every
load-bearing test tree wired into those gates, one row per check.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TESTS = REPO_ROOT / "tests"

sys.path.insert(0, str(REPO_ROOT / "tools"))
from coverage_floor import REQUIRED_TEST_GLOBS  # noqa: E402

MAX_EXAMPLES_BUDGET = 100


def _pyproject() -> str:
    return (REPO_ROOT / "pyproject.toml").read_text()


def _ci_legs() -> tuple[str, str]:
    """The two kernel legs of the CI workflow: ``(cc, fallback)``.

    The cc leg is the ``tier1`` job (the C kernel library must build);
    the fallback leg is the ``no-compiler`` job, which pins
    ``REPRO_JIT_PROVIDER=none`` so ``kernels="compiled"`` runs ``fast``.
    """
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    cc = ci[ci.index("\n  tier1:"):ci.index("\n  no-compiler:")]
    fallback = ci[ci.index("\n  no-compiler:"):ci.index("\n  sanitize:")]
    return cc, fallback


def _legs_pin_cc_and_fallback() -> None:
    """One CI leg must build the kernel library, the other must run
    tier-1 without it; the broken-toolchain fallback is tested."""
    cc, fallback = _ci_legs()
    assert "REPRO_JIT_PROVIDER: cc" in cc
    assert "k.warm()" in cc  # a failed build fails the leg
    assert "REPRO_JIT_PROVIDER: none" in fallback
    assert "make test" in cc and "make test" in fallback
    text = (TESTS / "core" / "test_compiled_fallback.py").read_text()
    assert "class TestBrokenToolchain" in text


def _non_empty(*names: str) -> None:
    for name in names:
        path = TESTS / name
        assert path.exists() and path.stat().st_size > 0, name


def _floor_requires(*globs: str) -> None:
    """tools/coverage_floor.py refuses to gate without these files, so
    a rename can't silently drop the tree's coverage."""
    for pattern in globs:
        assert pattern in REQUIRED_TEST_GLOBS, pattern


def _slow_marked(fragment: str, *names: str) -> None:
    """An expensive test (worker pools, 2^22 ingests, 2^17-slot shards)
    whose name contains ``fragment`` carries the registered ``slow``
    marker, so it stays out of tier-1."""
    for name in names:
        text = (TESTS / name).read_text()
        match = re.search(
            rf"@pytest\.mark\.slow\s*\n\s*def (\w*{fragment}\w*)", text
        )
        assert match, f"{name}: *{fragment}* test must be slow-marked"


def _shared_profiles(*names: str) -> None:
    """Property tests draw their budgets from tests/profiles.py."""
    for name in names:
        text = (TESTS / name).read_text()
        assert "from profiles import examples" in text, name
        assert "settings(max_examples" not in text, name


class TestMarkerConfig:
    def test_slow_marker_registered(self):
        assert re.search(r'"slow:.*"', _pyproject())

    def test_fuzz_marker_registered(self):
        assert re.search(r'"fuzz:.*"', _pyproject())

    def test_tier1_deselects_slow_and_fuzz(self):
        assert "-m 'not slow and not fuzz'" in _pyproject()

    def test_fuzz_directory_is_fuzz_marked(self):
        """Everything under tests/fuzz/ opts out of tier-1 via the marker."""
        fuzz_tests = list((TESTS / "fuzz").glob("test_*.py"))
        assert fuzz_tests
        for path in fuzz_tests:
            assert re.search(
                r"pytestmark\s*=\s*pytest\.mark\.fuzz", path.read_text()
            ), f"{path.name}: missing `pytestmark = pytest.mark.fuzz`"

    def test_mutant_and_harness_runs_stay_out_of_tier1_paths(self):
        """The sanitizer's own tier-1 tests are cheap unit runs; the
        expensive differential campaigns live behind the fuzz marker."""
        match = re.search(r"testpaths\s*=\s*\[([^\]]*)\]", _pyproject())
        assert match is not None
        assert "tests" in match.group(1)  # tests/fuzz deselected by marker

    def test_benchmarks_outside_tier1_paths(self):
        """The full-size modelled sweeps live in benchmarks/, not testpaths."""
        match = re.search(r"testpaths\s*=\s*\[([^\]]*)\]", _pyproject())
        assert match and "benchmarks" not in match.group(1)
        assert (REPO_ROOT / "benchmarks" / "bench_cluster.py").exists()

    def test_slow_marks_use_registered_name(self):
        """Every pytest.mark.<name> in tests/ is a registered marker."""
        registered = set(
            re.findall(r'"(\w+):', _pyproject())
        ) | {"parametrize", "skip", "skipif", "xfail", "usefixtures", "filterwarnings"}
        for path in TESTS.rglob("test_*.py"):
            for mark in re.findall(r"pytest\.mark\.(\w+)", path.read_text()):
                assert mark in registered, f"{path.name}: unregistered mark {mark}"


class TestObsTree:
    """The observability suite stays inside the tier-1 budget."""

    EXPECTED = {
        "test_reportable.py",
        "test_trace.py",
        "test_metrics.py",
        "test_export.py",
        "test_runtime.py",
        "test_options.py",
        "test_cli_trace.py",
    }

    def test_obs_tree_covers_every_layer(self):
        """One test module per obs layer: protocol, trace, metrics,
        exporters, runtime hooks, option shims, CLI."""
        present = {p.name for p in (TESTS / "obs").glob("test_*.py")}
        assert self.EXPECTED <= present

    def test_process_backend_equivalence_is_slow_marked(self):
        """Worker-pool spin-up is the one expensive obs test."""
        _slow_marked("process", "obs/test_runtime.py")

    def test_obs_tests_avoid_global_obs_leakage(self):
        """obs state is process-global: tests must scope it through
        `obs.session()` / `configure(...)` teardown, never leave it on."""
        for path in (TESTS / "obs").glob("test_*.py"):
            text = path.read_text()
            for m in re.finditer(r"configure\(enabled=True\)", text):
                # every enable has a matching disable in the same file
                assert "configure(enabled=False" in text, path.name


#: Every load-bearing test tree, as ``{class: {test: (check, *args)}}``.
#: Each row is one check over the files it names; the classes below are
#: generated from it, so each check keeps a stable id such as
#: ``TestGrowthTree::test_growth_tree_exists_and_non_empty``.
TREE_AUDIT = {
    "TestGrowthTree": {  # lifecycle: storage, growth, coordinated growth
        "test_growth_tree_exists_and_non_empty": (
            _non_empty, "core/test_store.py", "core/test_growth.py",
            "core/test_growth_equivalence.py",
            "multigpu/test_distributed_growth.py",
        ),
        "test_coverage_floor_requires_growth_tree": (
            _floor_requires, "tests/core/test_growth*.py",
            "tests/multigpu/test_distributed_growth*.py",
        ),
        "test_process_engine_growth_is_slow_marked": (
            _slow_marked, "process", "core/test_growth.py",
            "core/test_growth_equivalence.py",
        ),
        "test_growth_property_tests_use_shared_profiles": (
            _shared_profiles, "core/test_growth_equivalence.py",
        ),
    },
    "TestCompiledTree": {  # kernel identity, fallback, engines, plan
        "test_compiled_tree_exists_and_non_empty": (
            _non_empty, "core/test_compiled_kernels.py",
            "core/test_compiled_fallback.py",
            "exec/test_compiled_equivalence.py", "multigpu/test_plan.py",
        ),
        "test_coverage_floor_requires_compiled_tree": (
            _floor_requires, "tests/core/test_compiled_kernels*.py",
            "tests/core/test_compiled_fallback*.py",
            "tests/exec/test_compiled_equivalence*.py",
        ),
        "test_legs_pin_cc_and_fallback": (_legs_pin_cc_and_fallback,),
        "test_process_engine_equivalence_is_slow_marked": (
            _slow_marked, "process", "exec/test_compiled_equivalence.py",
        ),
        "test_compiled_property_tests_use_shared_profiles": (
            _shared_profiles, "core/test_compiled_kernels.py",
            "exec/test_compiled_equivalence.py",
        ),
    },
    "TestPipelineTree": {  # depth identity, staging and backpressure
        "test_pipeline_tree_exists_and_non_empty": (
            _non_empty, "pipeline/test_pipeline_depth.py",
            "pipeline/test_staging.py",
        ),
        "test_coverage_floor_requires_pipeline_tree": (
            _floor_requires, "tests/pipeline/test_pipeline_depth*.py",
            "tests/pipeline/test_staging*.py",
        ),
        "test_out_of_core_demo_is_slow_marked": (
            _slow_marked, "2_22", "pipeline/test_staging.py",
        ),
        "test_depth_property_tests_use_shared_profiles": (
            _shared_profiles, "pipeline/test_pipeline_depth.py",
        ),
    },
    "TestServeTree": {  # codec, cache, live round trips, soak, faults
        "test_serve_tree_exists_and_non_empty": (
            _non_empty, "serve/test_protocol.py",
            "serve/test_cache_properties.py", "serve/test_server_client.py",
            "serve/test_soak.py", "serve/test_faults.py",
        ),
        "test_coverage_floor_requires_serve_tree": (
            _floor_requires, "tests/serve/test_soak*.py",
            "tests/serve/test_faults*.py",
            "tests/serve/test_cache_properties*.py",
            "tests/serve/test_protocol*.py",
        ),
        "test_process_client_soak_is_slow_marked": (
            _slow_marked, "process", "serve/test_soak.py",
        ),
        "test_serve_property_tests_use_shared_profiles": (
            _shared_profiles, "serve/test_protocol.py",
            "serve/test_cache_properties.py",
        ),
    },
    "TestClusterTree": {  # cluster identity + NIC charges, graph, split
        "test_cluster_tree_exists_and_non_empty": (
            _non_empty, "multigpu/test_hierarchical.py",
            "multigpu/test_topology.py", "multigpu/test_multisplit.py",
        ),
        "test_coverage_floor_requires_cluster_tree": (
            _floor_requires, "tests/multigpu/test_hierarchical*.py",
        ),
        "test_hierarchical_property_tests_use_shared_profiles": (
            _shared_profiles, "multigpu/test_hierarchical.py",
        ),
    },
    "TestCompactTree": {  # store planes, cross-layout identity, snapshots
        "test_compact_tree_exists_and_non_empty": (
            _non_empty, "core/test_store.py", "core/test_compact_layout.py",
            "core/test_serialize.py", "multigpu/test_compact_distribution.py",
        ),
        "test_coverage_floor_requires_compact_tree": (
            _floor_requires, "tests/core/test_compact_layout*.py",
            "tests/core/test_store*.py",
            "tests/multigpu/test_compact_distribution*.py",
        ),
        "test_compact_property_tests_use_shared_profiles": (
            _shared_profiles, "core/test_compact_layout.py",
            "core/test_store.py",
        ),
    },
}


def _case(check, *args):
    def test(self):
        check(*args)

    return test


for _tree, _rows in TREE_AUDIT.items():
    globals()[_tree] = type(
        _tree, (), {name: _case(*row) for name, row in _rows.items()}
    )


class TestHypothesisBudget:
    def test_property_tests_cap_examples(self):
        """Example counts stay within the tier-1 budget.

        Counts appear either as raw ``settings(max_examples=N)`` or via
        the shared profile helper ``@examples(N)`` (scaled by the active
        Hypothesis profile, 1.0 under the default ``ci`` profile).
        """
        found = 0
        pattern = re.compile(r"max_examples=(\d+)|@examples\((\d+)\)")
        for path in TESTS.rglob("test_*.py"):
            for raw, scaled in pattern.findall(path.read_text()):
                found += 1
                count = int(raw or scaled)
                assert count <= MAX_EXAMPLES_BUDGET, (
                    f"{path.name}: {count} examples exceeds "
                    f"tier-1 budget {MAX_EXAMPLES_BUDGET}"
                )
        assert found > 0  # the fused-path property tests exist

    def test_migrated_property_tests_use_shared_profiles(self):
        """The fast-path suites draw budgets from tests/profiles.py."""
        _shared_profiles(
            "exec/test_backend_equivalence.py",
            "primitives/test_scatter.py",
            "multigpu/test_fused_distribution.py",
        )
