"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info
    Library, model-calibration, and simulated-hardware summary.
demo
    A 30-second single-GPU + multi-GPU functional demo.
rates
    Modelled single-GPU insert/retrieve rates for chosen loads and |g|.
figures
    Regenerate paper figures (delegates to the experiment harness).
trace
    Run a small traced cascade and write a Chrome/Perfetto
    ``.trace.json`` through :mod:`repro.obs`.
serve / client
    Serve a distributed table over a unix/TCP socket, and drive it.
racecheck
    Shadow-memory race sanitizer over the reference kernels: clean-tree
    certification plus the seeded mutant catalogue.
fuzz
    Differential fuzzing of the fast paths against the reference
    semantics, with fault injection, shrinking, and seed replay.

The correctness gate is the tier-1 test suite (``pytest``); these
commands run and inspect the library, they do not re-check it.
"""

from __future__ import annotations

import argparse
import sys


__all__ = ["main", "build_parser"]


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.perfmodel import P100, calibration as cal
    from repro.utils.tables import format_kv

    print(f"repro {repro.__version__} — WarpDrive reproduction (IPDPS 2018)")
    print()
    print(
        format_kv(
            {
                "simulated GPU": P100.name,
                "VRAM": f"{P100.vram_gib:.0f} GiB",
                "peak bandwidth": f"{P100.mem_bandwidth / 1e9:.0f} GB/s",
                "random-access efficiency": cal.RANDOM_ACCESS_EFFICIENCY,
                "atomic CAS rate": f"{cal.ATOMIC_CAS_RATE / 1e9:.1f} G/s",
                "CAS degradation knee": f"{cal.CAS_DEGRADE_KNEE_BYTES >> 30} GiB",
                "NVLink efficiency": cal.NVLINK_EFFICIENCY,
                "PCIe efficiency": cal.PCIE_EFFICIENCY,
            },
            title="calibration (repro/perfmodel/calibration.py)",
        )
    )
    print()
    print("subsystems: core simt memory hashing primitives multigpu "
          "pipeline baselines perfmodel workloads bench")
    return 0



def _resolve_topology_arg(args: argparse.Namespace, *, default_m: int = 4):
    """Build a command's topology from ``--topology`` / ``--m``.

    The two are mutually exclusive — a spec like ``cluster:2x4`` already
    fixes the GPU count.  Re-resolves the spec on every call so each run
    starts on fresh simulated devices.
    """
    from repro.errors import ConfigurationError
    from repro.multigpu import p100_nvlink_node
    from repro.multigpu import topology as build_topology

    spec = getattr(args, "topology", None)
    m = getattr(args, "m", None)
    if spec is not None:
        if m is not None:
            raise ConfigurationError(
                "got both --topology and --m; the topology spec already "
                "fixes the GPU count (see repro.options)"
            )
        return build_topology(spec)
    return p100_nvlink_node(default_m if m is None else m)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import WarpDriveHashTable
    from repro.multigpu import DistributedHashTable
    from repro.perfmodel import kernel_seconds, P100, throughput, time_cascade
    from repro.workloads import random_values, unique_keys

    n = args.n
    keys = unique_keys(n, seed=1)
    values = random_values(n, seed=2)

    table = WarpDriveHashTable.for_load_factor(n, 0.95, group_size=4)
    rep = table.insert(keys, values)
    got, found = table.query(keys)
    assert bool(found.all()) and bool((got == values).all())
    secs = kernel_seconds(rep, P100, table_bytes=table.table_bytes)
    print(
        f"single GPU : {n} pairs at load {table.load_factor:.2f}, "
        f"mean probe windows {rep.mean_windows:.2f}, "
        f"modelled {throughput(n, secs) / 1e9:.2f} G inserts/s"
    )

    node = _resolve_topology_arg(args)
    dist = DistributedHashTable.for_workload(
        node, keys, 0.95, group_size=4,
        engine=args.engine, workers=args.workers,
    )
    drep = dist.insert(keys, values, source="host")
    timing = time_cascade(drep, dist, node)
    got, found, _ = dist.query(keys[: n // 4], source="device")
    assert bool(found.all())
    print(
        f"4x P100    : imbalance {drep.load_imbalance:.3f}, "
        f"modelled {throughput(n, timing.total) / 1e9:.2f} G inserts/s "
        f"host-sided ({throughput(n, timing.device_only) / 1e9:.2f} device-sided)"
    )
    print(
        f"engine     : {dist.engine.name}, kernel phase measured "
        f"{drep.kernel_wall_seconds * 1e3:.1f} ms across {node.num_devices} shards"
    )
    dist.free()
    print("demo OK")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    from repro.bench import run_single_gpu_sweep

    sweep = run_single_gpu_sweep(
        n=args.n,
        loads=tuple(args.loads),
        group_sizes=tuple(args.groups),
        distribution=args.distribution,
    )
    print(sweep.format())
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.bench import evaluate_claims, format_scorecard

    results = evaluate_claims(quick=not args.full)
    print(format_scorecard(results))
    return 0 if all(r.ok for r in results) else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench.figures import print_all_figures

    print_all_figures(full=args.full)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.multigpu import DistributedHashTable
    from repro.workloads import random_values, unique_keys

    n = 1 << 12 if args.smoke else args.n
    keys = unique_keys(n, seed=3)
    values = random_values(n, seed=4)
    node = _resolve_topology_arg(args)
    with obs.session() as (recorder, metrics):
        table = DistributedHashTable.for_workload(
            node, keys, 0.95, group_size=4,
            engine=args.engine, workers=args.workers,
        )
        try:
            table.insert(keys, values, source="host")
            _, found, _ = table.query(keys, source="host")
        finally:
            table.free()
    if not bool(found.all()):
        print("trace workload failed: not all inserted keys were found")
        return 1

    data = obs.to_perfetto(recorder, metrics)
    problems = obs.validate_trace(data)
    path = obs.write_trace(args.out, recorder, metrics)

    print(obs.render_trace(recorder))
    print()
    counts = {c: len(recorder.by_category(c)) for c in sorted(recorder.categories())}
    summary = ", ".join(f"{c}={k}" for c, k in counts.items())
    print(f"{len(recorder.spans)} spans ({summary})")
    print(f"makespan {recorder.makespan * 1e3:.1f} ms, trace {recorder.trace_id}")
    print(f"wrote {path} (open at https://ui.perfetto.dev)")
    if problems:
        print(f"INVALID trace_event output ({len(problems)} problems):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    return 0


def _parse_budget(text: str) -> float:
    """Seconds from a ``30s`` / ``2m`` / plain-number budget string."""
    text = text.strip().lower()
    if text.endswith("m"):
        return float(text[:-1]) * 60.0
    if text.endswith("s"):
        return float(text[:-1])
    return float(text)


def _cmd_racecheck(args: argparse.Namespace) -> int:
    from repro.sanitize.mutants import MUTANTS, run_clean, run_mutant
    from repro.simt.scheduler import RandomScheduler, RoundRobinScheduler

    schedulers = {
        "round_robin": lambda: RoundRobinScheduler(),
        "random": lambda: RandomScheduler(seed=args.seed),
    }
    names = [args.mutant] if args.mutant else ["clean", *MUTANTS]
    failures = 0
    for name in names:
        for label, make in schedulers.items():
            if name == "clean":
                report = run_clean(make())
                ok = report.clean
                verdict = "clean" if ok else "FINDINGS (unexpected)"
            else:
                report = run_mutant(name, make())
                expected = MUTANTS[name].expected_rule
                ok = expected in report.rules_hit()
                verdict = (
                    f"flagged [{expected}]" if ok else "NOT FLAGGED (bug!)"
                )
            failures += not ok
            print(f"{name:26s} {label:12s} {verdict}")
            if args.verbose or not ok:
                for line in report.format().splitlines():
                    print("    " + line)
    return 1 if failures else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.sanitize.fuzz import replay_seed, run_fuzz
    from repro.sanitize.inject import INJECTIONS

    if args.inject is not None and args.inject not in INJECTIONS:
        print(f"unknown injection {args.inject!r}; choose from "
              f"{sorted(INJECTIONS)}")
        return 2

    if args.replay is not None:
        failure = replay_seed(args.replay, inject=args.inject)
        if failure is None:
            print(f"replay seed={args.replay}: all differential checks pass")
            return 0
        print(failure.message())
        return 1

    result = run_fuzz(
        budget_seconds=_parse_budget(args.budget) if args.budget else None,
        max_cases=args.max_cases,
        start_seed=args.seed,
        inject=args.inject,
        corpus_path=args.corpus,
        shrink_failures=not args.no_shrink,
        log=print,
    )
    print(result.format())
    return 1 if result.failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import KVServer

    address = args.socket
    if address is None and args.port is not None:
        address = (args.host, args.port)
    server = KVServer.create(
        num_gpus=args.m,
        capacity=args.capacity,
        address=address,
        cache=not args.no_cache,
        cache_size=args.cache_size,
        batch_window=args.batch_window,
    ).start()
    addr = server.address
    shown = addr if isinstance(addr, str) else f"{addr[0]}:{addr[1]}"
    print(f"serving {args.m}-GPU table (capacity {args.capacity}) on {shown}")
    print("stop with Ctrl-C or a client-side shutdown")
    try:
        server.wait()
    except KeyboardInterrupt:
        server.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json as jsonlib
    import time as timelib

    from repro.serve import KVClient
    from repro.workloads import random_values, serving_zipf_keys, universe_key_map

    address = args.socket
    if address is None and args.port is not None:
        address = (args.host, args.port)
    if address is None:
        print("FAIL client needs --socket PATH or --port N")
        return 2
    with KVClient(
        address, name=args.name, retry_overloaded=8
    ) as client:
        if args.op == "stats":
            print(jsonlib.dumps(client.stats(), indent=2))
            return 0
        if args.op == "shutdown":
            client.shutdown_server()
            print("server asked to shut down")
            return 0
        if args.op == "prefill":
            keys = universe_key_map(args.universe, seed=args.seed)
            values = random_values(args.universe, seed=args.seed ^ 0xBEEF)
            count = client.insert(keys, values)
            print(f"prefilled {count} universe pairs")
            return 0
        # op == "zipf": the Zipfian load generator against a live server
        total = 0
        t0 = timelib.perf_counter()
        for batch in range(args.batches):
            keys = serving_zipf_keys(
                args.batch_size,
                args.s,
                universe=args.universe,
                seed=args.seed + 7919 * (batch + 1),
                map_seed=args.seed,
            )
            _, found = client.query(keys)
            total += int(keys.size)
        seconds = timelib.perf_counter() - t0
        counters = client.stats()["counters"]
        hits = counters.get("serve.cache.hits", 0)
        misses = counters.get("serve.cache.misses", 0)
        rate = hits / (hits + misses) if hits + misses else 0.0
        print(
            f"{total} Zipf(s={args.s}) queries in {seconds:.3f} s "
            f"({total / seconds / 1e6:.3f} Mops/s), "
            f"found {int(found.sum())}/{found.size} in last batch, "
            f"server hit rate {rate:.0%}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="WarpDrive reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and calibration summary").set_defaults(
        fn=_cmd_info
    )

    demo = sub.add_parser("demo", help="functional single+multi GPU demo")
    demo.add_argument("--n", type=int, default=100_000, help="pairs to insert")
    demo.add_argument(
        "--engine",
        choices=("serial", "thread"),
        default="serial",
        help="shard-execution backend for the multi-GPU part",
    )
    demo.add_argument(
        "--workers", type=int, default=None, help="pool size for the thread engine"
    )
    demo.add_argument(
        "--topology", default=None, metavar="SPEC",
        help='''topology spec: "p100:M", "pcie:M", "dgx1v", "cluster:NxM" (see repro.options)''',
    )
    demo.set_defaults(fn=_cmd_demo)

    rates = sub.add_parser("rates", help="modelled single-GPU rate table")
    rates.add_argument("--n", type=int, default=1 << 14)
    rates.add_argument(
        "--loads", type=float, nargs="+", default=[0.5, 0.8, 0.95]
    )
    rates.add_argument(
        "--groups", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32]
    )
    rates.add_argument(
        "--distribution", choices=("unique", "uniform", "zipf"), default="unique"
    )
    rates.set_defaults(fn=_cmd_rates)

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("--full", action="store_true")
    figures.set_defaults(fn=_cmd_figures)

    score = sub.add_parser(
        "scorecard", help="grade every checkable paper claim"
    )
    score.add_argument("--full", action="store_true")
    score.set_defaults(fn=_cmd_scorecard)

    serve = sub.add_parser(
        "serve",
        help="serve a distributed table over a unix/TCP socket",
    )
    serve.add_argument("--m", type=int, default=4, help="GPUs behind the server")
    serve.add_argument(
        "--capacity", type=int, default=1 << 16, help="total table capacity"
    )
    serve.add_argument(
        "--socket", default=None,
        help="unix socket path (default: fresh path under /tmp)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (0 picks one); overrides the unix default",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the hot-key cache tier"
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096, help="hot-key cache capacity"
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.002,
        help="upper bound, in seconds, on the coalescer's wait to merge "
        "requests (a batch starts once every connection is in)",
    )
    serve.set_defaults(fn=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="drive a running `repro serve` (Zipfian load generator)",
    )
    client.add_argument(
        "--op", choices=("zipf", "prefill", "stats", "shutdown"),
        default="zipf", help="what to run against the server",
    )
    client.add_argument("--socket", default=None, help="server unix socket path")
    client.add_argument("--host", default="127.0.0.1", help="server TCP host")
    client.add_argument("--port", type=int, default=None, help="server TCP port")
    client.add_argument("--name", default=None, help="client identity for HELLO")
    client.add_argument("--s", type=float, default=1.0, help="Zipf skew exponent")
    client.add_argument(
        "--universe", type=int, default=4096, help="distinct keys in the trace"
    )
    client.add_argument("--batches", type=int, default=16)
    client.add_argument("--batch-size", type=int, default=2048)
    client.add_argument("--seed", type=int, default=11)
    client.set_defaults(fn=_cmd_client)

    trace = sub.add_parser(
        "trace",
        help="run a traced m-GPU cascade and write Perfetto trace_event JSON",
    )
    trace.add_argument("--n", type=int, default=1 << 16, help="pairs to stream")
    trace.add_argument(
        "--m", type=int, default=None,
        help="GPUs in the cascade (default 4; exclusive with --topology)",
    )
    trace.add_argument(
        "--topology", default=None, metavar="SPEC",
        help='''topology spec: "p100:M", "pcie:M", "dgx1v", "cluster:NxM" (see repro.options)''',
    )
    trace.add_argument(
        "--engine",
        choices=("serial", "thread"),
        default="serial",
        help="shard-execution backend to trace",
    )
    trace.add_argument(
        "--workers", type=int, default=None, help="pool size for the thread engine"
    )
    trace.add_argument(
        "--smoke", action="store_true", help="tiny n for a quick sanity run"
    )
    trace.add_argument(
        "--out", default="repro.trace.json", help="trace_event JSON output path"
    )
    trace.set_defaults(fn=_cmd_trace)

    race = sub.add_parser(
        "racecheck",
        help="SIMT race sanitizer: clean-tree certification + mutant catalogue",
    )
    race.add_argument(
        "--mutant", default=None, help="run one catalogued mutant only"
    )
    race.add_argument(
        "--seed", type=int, default=7, help="random-scheduler seed"
    )
    race.add_argument(
        "--verbose", action="store_true", help="print full reports"
    )
    race.set_defaults(fn=_cmd_racecheck)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of fast paths vs reference"
    )
    fuzz.add_argument(
        "--budget", default=None, help="time budget, e.g. 30s or 2m"
    )
    fuzz.add_argument(
        "--max-cases", type=int, default=None, help="cap on cases run"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="first case seed (cases count up)"
    )
    fuzz.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="re-run the single case derived from SEED and exit",
    )
    fuzz.add_argument(
        "--inject", default=None, metavar="NAME",
        help="enable a seeded fault (see repro.sanitize.inject)",
    )
    fuzz.add_argument(
        "--corpus", default="tests/fuzz/corpus.json",
        help="seed-corpus JSON that failures are appended to (replayable)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="skip failure shrinking"
    )
    fuzz.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
