"""One measured benchmark process: set-up, timed passes, answer checks.

``run.py`` starts this script in a fresh interpreter, so the set-up time
it reports includes importing the package.  The last line it prints is
one JSON object with the run's metrics, checks and environment, which
``run.py`` turns into the benchmark's result line.

    python3 perfbench/worker.py --workload ingest --seed 1 --seconds 10 --trace 0

Every input is generated here from ``--seed`` before any timer starts;
the package only ever sees the generated keys and values.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up is timed from before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro import AsyncCascadeDriver, DistributedHashTable  # noqa: E402
from repro.constants import MAX_KEY  # noqa: E402
from repro.core import GrowthPolicy, kernels_jit  # noqa: E402
from repro.serve import KVClient, KVServer, ServeError  # noqa: E402

from layers import CacheTrace, TableTrace, witness_kernels  # noqa: E402

_IMPORTED = time.perf_counter()

#: every workload runs the paper's 4xP100 node with compiled kernels and
#: the package's defaults for every other option
TOPOLOGY = "p100:4"
KERNELS = "compiled"
WORKLOADS = ("ingest", "serve_zipf", "serve_uniform")
#: Zipf exponent of each serving workload's key popularity
SKEW = {"serve_zipf": 0.99, "serve_uniform": 0.0}
QUERY_SHARE = 0.9
#: ingest: the growth policy's load ceiling and the pipeline depth
MAX_LOAD = 0.9
DEPTH = 2
CLIENTS = 2  # = nproc on the reference host; one connection each
#: the unix socket lives inside the checkout; relative, so the path
#: stays under the 108-byte limit wherever the checkout is
STATE = Path(".bench_build") / "perfbench"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the full ones define the workloads."""

    ingest_keys: int = 1 << 22
    ingest_batch: int = 1 << 16
    ingest_capacity: int = 1 << 20  # slots at the start of each pass
    universe: int = 1 << 18
    serve_capacity: int = 1 << 19
    requests: int = 600  # per client per pass
    request_keys: int = 2048


FULL = Sizes()
#: the self-test's sizes: seconds per workload, same code paths (grows
#: included)
TOY = Sizes(
    ingest_keys=1 << 14,
    ingest_batch=1 << 11,
    ingest_capacity=1 << 12,
    universe=1 << 12,
    serve_capacity=1 << 13,
    requests=20,
    request_keys=256,
)


def unique_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct valid keys in random order."""
    while True:
        draw = np.sort(
            rng.integers(0, MAX_KEY + 1, size=n + n // 16 + 64, dtype=np.uint64)
        ).astype(np.uint32)
        # sort + mask: np.unique is far slower on this size
        uniq = draw[np.concatenate(([True], draw[1:] != draw[:-1]))]
        if uniq.size >= n:
            return rng.permutation(uniq)[:n]


def random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)


def table_bytes_per_pair(table) -> float:
    return sum(shard.table_bytes for shard in table.shards) / len(table)


def latency_metrics(passes: list[dict]) -> dict:
    """Latency percentiles over every sample of the run."""

    def pct(key: str, q: float) -> float:
        samples = np.concatenate([p[key] for p in passes])
        return float(np.percentile(samples, q)) * 1e3

    return {
        "query_p50_ms": pct("query_latency", 50),
        "query_p95_ms": pct("query_latency", 95),
        "insert_p50_ms": pct("insert_latency", 50),
    }


def uncontained(*checks: tuple[str, float, float]) -> list[str]:
    """Each ``(label, inner, outer)`` whose inner time exceeds its outer one.

    Every inner time is measured inside the outer interval on one thread,
    so it can only exceed it if a layer was counted twice.
    """
    return [
        f"layer time exceeds the time around it: {label} "
        f"({inner:.6f} s > {outer:.6f} s)"
        for label, inner, outer in checks
        if inner > outer * (1 + 1e-9) + 1e-9
    ]


def sample_counts(passes: list[dict]) -> dict:
    return {
        "passes": len(passes),
        "query_latency": sum(len(p["query_latency"]) for p in passes),
        "insert_latency": sum(len(p["insert_latency"]) for p in passes),
    }


class Ingest:
    """Unique keys streamed in through a depth-2 driver, then read back.

    The table starts at a quarter of the final key count, so the insert
    stream crosses several coordinated grows.  Queries ask for the same
    keys in a seeded shuffled order.  Each pass builds a fresh table.
    """

    def __init__(self, seed: int, sizes: Sizes, corrupt: bool):
        self.seed = seed
        self.sizes = sizes
        self.corrupt = corrupt
        self.kernels: set[str] = set()
        self.table = None
        self.bytes_per_pair: set[float] = set()
        self.grows: set[int] = set()

    def _new_table(self):
        table = DistributedHashTable(
            self.sizes.ingest_capacity,
            topology=TOPOLOGY,
            kernels=KERNELS,
            growth=GrowthPolicy(max_load=MAX_LOAD),
        )
        witness_kernels(table, self.kernels)
        return table

    def setup(self) -> None:
        kernels_jit.warm()
        self.table = self._new_table()

    def prepare(self) -> None:
        """Make the keys, values and query order (set-up needs none)."""
        rng = np.random.default_rng([self.seed, 0])
        n = self.sizes.ingest_keys
        self.keys = unique_keys(rng, n)
        self.values = random_values(rng, n)
        order = rng.permutation(n)
        self.query_keys = self.keys[order]
        self.expected = self.values[order]  # the checker's own copy
        if self.corrupt:
            self.expected[n // 2] ^= 1

    def close(self) -> None:
        if self.table is not None:
            self.table.free()
            self.table = None

    def _batches(self, *arrays, pulls: list[float]):
        """Slices of ``arrays``; stamps the instant the driver asks for each."""
        b = self.sizes.ingest_batch
        for i in range(0, arrays[0].shape[0], b):
            pulls.append(time.perf_counter())
            batch = tuple(a[i : i + b] for a in arrays)
            yield batch if len(batch) > 1 else batch[0]

    def run_pass(self, index: int, traced: bool) -> dict:
        table = self.table if self.table is not None else self._new_table()
        self.table = None
        driver = AsyncCascadeDriver(table, depth=DEPTH)
        trace = TableTrace(table) if traced else None
        ins_pulls: list[float] = []
        qry_pulls: list[float] = []
        t0 = time.perf_counter()
        ins = driver.insert_stream(
            self._batches(self.keys, self.values, pulls=ins_pulls)
        )
        t1 = time.perf_counter()
        qry = driver.query_stream(self._batches(self.query_keys, pulls=qry_pulls))
        t2 = time.perf_counter()
        if trace is not None:
            trace.close()
        n = self.keys.shape[0]
        wrong = int(np.count_nonzero(~qry.found | (qry.values != self.expected)))
        self.bytes_per_pair.add(table_bytes_per_pair(table))
        self.grows.add(table.shards[0].grows)
        out = {
            "wall": t2 - t0,
            "insert_wall": t1 - t0,
            "query_wall": t2 - t1,
            # a batch's latency here is its service interval: the time
            # between the stager's pulls of consecutive batches
            "insert_latency": np.diff(ins_pulls + [t1]),
            "query_latency": np.diff(qry_pulls + [t2]),
            "attempted": 2 * n,
            "failed": wrong,
        }
        if trace is not None:
            led = trace.ledger
            wall = t2 - t0
            stage = trace.seconds("stage_insert", "stage_query")
            commit = trace.seconds("commit_staged")
            # one stager thread stages, the caller alone commits; kernels
            # and grows run inside commits, the distribution inside both
            out["violations"] = uncontained(
                ("staging within the pass", stage, wall),
                ("commits within the pass", commit, wall),
                ("kernels + grows within commits", led.kernel_s + led.grow_s, commit),
                (
                    "distribution + kernels + grows within staging + commits",
                    led.distribution_s + led.kernel_s + led.grow_s,
                    stage + commit,
                ),
            )
            out["layers"] = {
                "pipeline.stall_s": ins.stall_seconds + qry.stall_seconds,
                "pipeline.overlap": (stage + commit) / wall,
                # the committing thread's time outside commit_staged:
                # waiting on the stager plus the driver's own bookkeeping
                "pipeline.unattributed_s": wall - commit,
                "multigpu.stage_insert_s": trace.seconds("stage_insert"),
                "multigpu.stage_query_s": trace.seconds("stage_query"),
                "multigpu.commit_insert_s": led.commit_s["insert"],
                "multigpu.commit_query_s": led.commit_s["query"],
                "multigpu.distribution_s": led.distribution_s,
                "core.kernel_s": led.kernel_s,
                "core.grow_s": led.grow_s,
                "core.grow_count": table.shards[0].grows,
                **led.counts(),
            }
        table.free()
        return out

    def summarize(self, passes: list[dict]) -> dict:
        """End-to-end metrics."""
        n = self.keys.shape[0]
        return {
            "insert_mkeys_per_s": statistics.median(
                n / p["insert_wall"] / 1e6 for p in passes
            ),
            "query_mkeys_per_s": statistics.median(
                n / p["query_wall"] / 1e6 for p in passes
            ),
            "mkeys_per_s": statistics.median(2 * n / p["wall"] / 1e6 for p in passes),
            **latency_metrics(passes),
        }

    def final_check(self) -> tuple[int, int]:
        return 0, 0  # every pass already read back every key


class Serve:
    """Closed-loop clients against a prefilled ``KVServer``.

    Each client thread sends its requests one at a time and waits for
    each reply.  Inserts write the ground-truth value, so they invalidate
    cache entries without changing any answer, and every reply stays
    checkable under concurrency.
    """

    def __init__(self, seed: int, sizes: Sizes, skew: float, corrupt: bool):
        rng = np.random.default_rng([seed, 1])
        u = sizes.universe
        self.seed = seed
        self.sizes = sizes
        self.universe = unique_keys(rng, u)
        self.values = random_values(rng, u)
        self.expected = self.values.copy()  # the checker's own copy
        if corrupt:
            self.expected[0] ^= 1
        # rank r (1-based) drawn with probability proportional to r^-skew;
        # one CDF serves every request through searchsorted
        cdf = np.cumsum(np.arange(1, u + 1, dtype=np.float64) ** -skew)
        self.cdf = cdf / cdf[-1]
        self.kernels: set[str] = set()
        self.bytes_per_pair: set[float] = set()
        self.grows: set[int] = set()
        self.server = None
        self.clients: list[KVClient] = []
        self.socket = STATE / f"kv-{os.getpid()}.sock"

    def setup(self) -> None:
        table = DistributedHashTable(
            self.sizes.serve_capacity, topology=TOPOLOGY, kernels=KERNELS
        )
        witness_kernels(table, self.kernels)
        self.socket.parent.mkdir(parents=True, exist_ok=True)
        self.socket.unlink(missing_ok=True)
        self.server = KVServer(table, address=str(self.socket), own_table=True)
        self.server.start()
        self.clients = [KVClient(str(self.socket)) for _ in range(CLIENTS)]
        acked = self.clients[0].insert(self.universe, self.values)
        if acked != self.universe.shape[0]:
            raise RuntimeError(f"prefill acknowledged {acked} pairs")

    def prepare(self) -> None:
        """Nothing left to make: the prefill needed the universe already."""

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.close()
            self.server = None
        self.socket.unlink(missing_ok=True)

    def _traffic(self, index: int, client: int):
        """One client's requests for pass ``index``: op mask, keys, values."""
        rng = np.random.default_rng([self.seed, 2, index, client])
        s = self.sizes
        is_query = rng.random(s.requests) < QUERY_SHARE
        idx = np.searchsorted(
            self.cdf, rng.random((s.requests, s.request_keys)), side="right"
        )
        np.minimum(idx, self.universe.shape[0] - 1, out=idx)
        return is_query, self.universe[idx], self.values[idx], self.expected[idx]

    def run_pass(self, index: int, traced: bool) -> dict:
        traffic = [self._traffic(index, c) for c in range(CLIENTS)]
        requests = self.sizes.requests
        replies: list[list] = [[None] * requests for _ in range(CLIENTS)]
        latency = np.zeros((CLIENTS, requests))
        errors: list[BaseException] = []

        def drive(c: int) -> None:
            client = self.clients[c]
            is_query, keys, values, _ = traffic[c]
            try:
                for j in range(requests):
                    t0 = time.perf_counter()
                    try:
                        if is_query[j]:
                            reply = client.query(keys[j])
                        else:
                            reply = client.insert(keys[j], values[j])
                    except ServeError as exc:  # a refused request is a failed op
                        reply = exc
                    latency[c, j] = time.perf_counter() - t0
                    replies[c][j] = reply
            except Exception as exc:  # surfaced to the main thread below
                errors.append(exc)

        if traced:
            before = self.clients[0].stats()["counters"]
            table_trace = TableTrace(self.server.table, cascades=True)
            cache_trace = CacheTrace(self.server.cache)
        threads = [threading.Thread(target=drive, args=(c,)) for c in range(CLIENTS)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        if errors:
            raise errors[0]
        table = self.server.table
        self.bytes_per_pair.add(table_bytes_per_pair(table))
        self.grows.add(table.shards[0].grows)

        failed = 0
        for c in range(CLIENTS):
            is_query, keys, _, expected = traffic[c]
            for j, reply in enumerate(replies[c]):
                if isinstance(reply, ServeError):
                    failed += keys.shape[1]
                elif is_query[j]:
                    vals, found = reply
                    failed += int(np.count_nonzero(~found | (vals != expected[j])))
                else:
                    failed += keys.shape[1] - reply
        is_query = np.stack([t[0] for t in traffic])
        out = {
            "wall": wall,
            "query_latency": latency[is_query],
            "insert_latency": latency[~is_query],
            "attempted": latency.size * self.sizes.request_keys,
            "failed": failed,
        }
        if traced:
            table_trace.close()
            cache_trace.close()
            after = self.clients[0].stats()["counters"]

            def delta(name: str) -> float:
                return after.get(name, 0) - before.get(name, 0)

            batches = delta("serve.batches")
            hits = delta("serve.cache.hits")
            lookups = hits + delta("serve.cache.misses")
            cascade = table_trace.seconds("query", "insert")
            cache = cache_trace.seconds()
            total_latency = float(latency.sum())
            led = table_trace.ledger
            stage = table_trace.seconds("stage_insert", "stage_query")
            commit = table_trace.seconds("commit_staged")
            # the coalescer thread alone runs cascades and cache calls;
            # each cascade stages and commits, kernels run inside commits
            out["violations"] = uncontained(
                ("cascades + cache within the pass", cascade + cache, wall),
                ("staging + commits within cascades", stage + commit, cascade),
                ("kernels + grows within commits", led.kernel_s + led.grow_s, commit),
                (
                    "distribution within staging + commits",
                    led.distribution_s,
                    stage + commit,
                ),
            )
            out["layers"] = {
                "serve.requests_per_batch": delta("serve.coalesced_requests") / batches,
                "serve.hit_rate": hits / lookups if lookups else 0.0,
                "serve.cache_ms_per_batch": cache * 1e3 / batches,
                "serve.cascade_ms_per_batch": cascade * 1e3 / batches,
                "serve.cascade_keys_per_batch": table_trace.cascade_keys / batches,
                # mean client latency minus each request's share of the
                # time the server spent in cascades and in the cache
                "serve.unattributed_ms_per_request": (
                    (total_latency - cascade - cache) * 1e3 / latency.size
                ),
                "multigpu.stage_insert_s": table_trace.seconds("stage_insert"),
                "multigpu.stage_query_s": table_trace.seconds("stage_query"),
                "multigpu.commit_insert_s": led.commit_s["insert"],
                "multigpu.commit_query_s": led.commit_s["query"],
                "multigpu.distribution_s": led.distribution_s,
                "core.kernel_s": led.kernel_s,
                "core.grow_s": led.grow_s,
                "core.grow_count": table.shards[0].grows,
                **led.counts(),
            }
        return out

    def summarize(self, passes: list[dict]) -> dict:
        """End-to-end metrics."""
        k = self.sizes.request_keys

        def rate(key: str) -> float:
            # keys per second of client time spent waiting on that op
            return k / np.concatenate([p[key] for p in passes]).mean() / 1e6

        return {
            "insert_mkeys_per_s": rate("insert_latency"),
            "query_mkeys_per_s": rate("query_latency"),
            "mkeys_per_s": statistics.median(
                p["attempted"] / p["wall"] / 1e6 for p in passes
            ),
            **latency_metrics(passes),
        }

    def final_check(self) -> tuple[int, int]:
        """Read the whole universe back once; returns (attempted, failed)."""
        vals, found = self.clients[0].query(self.universe)
        wrong = int(np.count_nonzero(~found | (vals != self.expected)))
        return self.universe.shape[0], wrong


#: per-layer metrics that do not apply to a workload read 0 there
LAYER_NAMES = (
    "pipeline.stall_s",
    "pipeline.overlap",
    "pipeline.unattributed_s",
    "multigpu.stage_insert_s",
    "multigpu.stage_query_s",
    "multigpu.commit_insert_s",
    "multigpu.commit_query_s",
    "multigpu.distribution_s",
    "multigpu.exchange_bytes_per_key",
    "multigpu.load_imbalance",
    "core.kernel_s",
    "core.grow_s",
    "core.grow_count",
    "core.probe_windows_per_key.insert",
    "core.probe_windows_per_key.query",
    "core.cas_per_insert",
    "serve.requests_per_batch",
    "serve.hit_rate",
    "serve.cache_ms_per_batch",
    "serve.cascade_ms_per_batch",
    "serve.cascade_keys_per_batch",
    "serve.unattributed_ms_per_request",
)

#: counts that must repeat exactly for one seed, per workload; the
#: serving counts depend on how concurrent requests coalesce, so only
#: the table's own shape is fixed there
DETERMINISTIC = {
    "ingest": (
        "bytes_per_pair",
        "core.grow_count",
        "core.probe_windows_per_key.insert",
        "core.probe_windows_per_key.query",
        "core.cas_per_insert",
        "multigpu.exchange_bytes_per_key",
    ),
    "serve": ("bytes_per_pair", "core.grow_count"),
}


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "jit_provider": kernels_jit.active_provider(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def timed_passes(bench, seconds: float, trace: bool) -> list[dict]:
    """Passes until ``seconds`` are spent; traced runs alternate passes.

    A traced run needs at least one untraced and one traced pass: the
    difference of their wall times is the tracing overhead.
    """
    deadline = time.perf_counter() + seconds
    passes: list[dict] = []
    while True:
        passes.append(bench.run_pass(len(passes), trace and len(passes) % 2 == 1))
        if time.perf_counter() >= deadline and (not trace or len(passes) >= 2):
            return passes


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = FULL,
    *,
    setup_only: bool = False,
    corrupt: bool = False,
) -> dict:
    """Set up, measure and check one workload; returns the raw result."""
    if workload == "ingest":
        bench = Ingest(seed, sizes, corrupt)
    else:
        bench = Serve(seed, sizes, SKEW[workload], corrupt)
    t0 = time.perf_counter()
    try:
        bench.setup()
        setup_s = (_IMPORTED - _START) + (time.perf_counter() - t0)
        if setup_only:
            return {"setup_s": setup_s}
        bench.prepare()
        passes = timed_passes(bench, seconds, trace)
        extra_attempted, extra_failed = bench.final_check()
    finally:
        bench.close()

    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    attempted = extra_attempted + sum(p["attempted"] for p in passes)
    failed = extra_failed + sum(p["failed"] for p in passes)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} operations answered wrongly")
    if bench.kernels != {KERNELS}:
        problems.append(
            f"cascades ran the {sorted(bench.kernels)} kernels, not {KERNELS}"
        )
    if kernels_jit.active_provider() != "cc":
        problems.append(f"JIT provider is {kernels_jit.active_provider()!r}, not cc")

    counts = {
        "bytes_per_pair": sorted(bench.bytes_per_pair),
        "core.grow_count": sorted(bench.grows),
    }
    if trace:
        metrics = dict.fromkeys(LAYER_NAMES, 0.0)
        for name in LAYER_NAMES:
            values = [p["layers"][name] for p in traced if name in p["layers"]]
            if values:
                metrics[name] = statistics.median(values)
                counts[name] = sorted(set(values))
        for p in traced:
            problems += p["violations"]
        metrics["trace.overhead_s"] = statistics.median(
            p["wall"] for p in traced
        ) - statistics.median(p["wall"] for p in untraced)
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    else:
        metrics = bench.summarize(passes)
        metrics["bytes_per_pair"] = counts["bytes_per_pair"][0]
        samples = sample_counts(passes)
    kind = "ingest" if workload == "ingest" else "serve"
    deterministic = {k: v for k, v in counts.items() if k in DETERMINISTIC[kind]}
    for name, values in deterministic.items():
        if len(values) > 1:
            problems.append(f"{name} drifted across passes of one seed: {values}")
    return {
        "setup_s": setup_s,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "counts": {k: v[0] for k, v in deterministic.items()},
        "kernels": sorted(bench.kernels),
        "samples": samples,
        "env": environment(seed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="time set-up, then exit"
    )
    args = parser.parse_args(argv)
    result = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        setup_only=args.setup_only,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
