"""The repository benchmark: one command per workload, checked answers.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.  The line before it records the
environment (JIT provider, nproc, Python and numpy versions, seed) and
sample counts.  Workloads, metrics and the layer map are described in
``perfbench/README.md``.

Before measuring, the run builds the compiled kernels into
``.bench_build/perfbench`` (a no-op once built) and compiles the
bytecode of every module set-up imports into a cache of its own there.
It then times set-up in several fresh interpreters and reports their
median as ``setup_s``, and runs the timed passes in one more.  Every
process started here is waited for.  The exit code is 0 only for a run
whose answers were all right and whose kernels were the compiled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ingest", "serve_zipf", "serve_uniform")
#: fresh interpreters that time set-up; the timed run's own is one more
SETUP_PROBES = 6
#: the whole run must end within 180 s
DEADLINE_S = 170.0


def worker_env() -> dict[str, str]:
    """The package from this checkout, with every cache inside it."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    # bytecode compiled from these very sources, by the warm-up probe:
    # any __pycache__ left in the tree by other tools is never read
    env["PYTHONPYCACHEPREFIX"] = str(STATE / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["REPRO_JIT_PROVIDER"] = "cc"
    env["REPRO_JIT_CACHE_DIR"] = str(STATE / "jit")
    env["TMPDIR"] = str(STATE / "tmp")
    return env


def call(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion from the checkout root (killed at the deadline)."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )


def last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{what} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_digest() -> str:
    """A hash of the measured code: the package sources and the benchmark."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: dict, code: str) -> list[str]:
    """Compare this run's deterministic counts with earlier runs of the seed.

    Counts are kept per ``code`` digest: a change to the program may move
    them, and only runs of identical code must agree.
    """
    path = STATE / "counts" / code / f"{workload}-{seed}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"{name} is {value!r}, an earlier run of seed {seed} on the same "
        f"code had {known[name]!r}"
        for name, value in counts.items()
        if name in known and known[name] != value
    ]
    if not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**known, **counts}, sort_keys=True))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no package sources at src/repro", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = worker_env()
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    build = call(
        ["-c", "from repro.core import kernels_jit as k; exit(not k.warm())"],
        env,
        deadline,
    )
    if build.returncode != 0:
        print("perfbench: building the compiled kernels failed", file=sys.stderr)
        return 1

    common = [
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # an unmeasured probe compiles the bytecode every later import reads
    last_json(call([*common, "--setup-only"], env, deadline), "warm-up probe")
    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = call([*common, "--setup-only"], env, deadline)
            setups.append(last_json(probe, f"set-up probe {i}")["setup_s"])
    result = last_json(call(common, env, deadline), "timed run")
    setups.append(result["setup_s"])

    metrics = dict(result["metrics"], setup_s=statistics.median(setups))
    names = {m["name"] for m in wanted}
    problems = result["problems"] + check_counts(
        args.workload, args.seed, result["counts"], code_digest()
    )
    missing = [name for name in names if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "env": result["env"],
        "kernels": result["kernels"],
        "samples": result["samples"],
        "setup_samples_s": setups,
        "counts": result["counts"],
        # measured but not bounded, such as the tail latency
        "unbounded": {k: v for k, v in result["metrics"].items() if k not in names},
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
