"""Toy-size self-test of the benchmark's own checks (about half a minute).

    python3 perfbench/selftest.py

For every workload, at toy sizes that still cross growth and caching:

* a clean run is correct and fails no operation;
* a run whose expected answers were corrupted in one place is not
  correct, and its failed-operation count rises;
* a run whose compiled kernels silently fall back to the fast ones is
  not correct, and the per-cascade kernel witness names the fast ones;
* a traced run reports every per-layer metric of ``BENCHMARK.json`` and
  no layer time outside the time around it, and its deterministic
  counts equal those of a second traced run and of an untraced run of
  the same seed;
* a traced run that counts every cascade report twice is not correct.

It also proves that a deterministic count that drifts between two runs
of one seed on the same code fails the check, and that a count moved
by a change of the code does not.

Prints one line per check and exits 1 if any does not hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

os.environ.update(run.worker_env())
sys.path.insert(0, str(run.ROOT / "src"))
os.chdir(run.ROOT)  # the serving socket path is relative to the root
(run.STATE / "tmp").mkdir(parents=True, exist_ok=True)

import layers  # noqa: E402
import worker  # noqa: E402  (needs the environment above)

SEED = 7


def toy(workload: str, *, trace: bool = False, corrupt: bool = False) -> dict:
    return worker.run(workload, SEED, 0, trace, worker.TOY, corrupt=corrupt)


def counted_twice(workload: str) -> dict:
    """A traced run whose ledger folds in every cascade report twice."""
    add = layers.CascadeLedger.add

    def twice(self, report, seconds):
        add(self, report, seconds)
        add(self, report, seconds)

    layers.CascadeLedger.add = twice
    try:
        return toy(workload, trace=True)
    finally:
        layers.CascadeLedger.add = add


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    for workload in run.WORKLOADS:
        clean = toy(workload)
        check(
            f"{workload}: clean run is correct",
            clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0,
        )
        bad = toy(workload, corrupt=True)
        check(
            f"{workload}: a corrupted expected value is caught",
            not bad["correct"] and bad["failed"] > clean["failed"],
        )
        os.environ["REPRO_JIT_PROVIDER"] = "none"
        try:
            fallback = toy(workload)
        finally:
            os.environ["REPRO_JIT_PROVIDER"] = "cc"
        check(
            f"{workload}: a kernel fallback fails the run and is witnessed",
            not fallback["correct"]
            and "fast" in fallback["kernels"]
            and any("kernels, not" in p for p in fallback["problems"]),
        )
        traced = toy(workload, trace=True)
        check(
            f"{workload}: traced run reports every layer metric",
            traced["correct"] and layer_names <= set(traced["metrics"]),
        )
        check(
            f"{workload}: a layer counted twice fails the traced run",
            not counted_twice(workload)["correct"],
        )
        again = toy(workload, trace=True)
        check(
            f"{workload}: deterministic counts repeat across runs of one seed",
            traced["counts"] == again["counts"]
            and all(traced["counts"][k] == v for k, v in clean["counts"].items()),
        )

    store = run.STATE / "counts"
    codes = ("selftest-a", "selftest-b")
    for code in codes:
        shutil.rmtree(store / code, ignore_errors=True)
    try:
        first = run.check_counts("ingest", SEED, {"core.grow_count": 3}, codes[0])
        drift = run.check_counts("ingest", SEED, {"core.grow_count": 4}, codes[0])
        moved = run.check_counts("ingest", SEED, {"core.grow_count": 4}, codes[1])
    finally:
        for code in codes:
            shutil.rmtree(store / code, ignore_errors=True)
    check("a count drift on the same code is caught", not first and bool(drift))
    check("a count moved by other code is not compared", not moved)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
