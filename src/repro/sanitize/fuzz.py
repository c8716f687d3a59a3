"""Differential fuzz harness cross-checking fast paths against reference.

Every case is derived from a single integer seed: workload shape (size,
group size, load factor, key skew, tombstone ratio, GPU count) and the
scheduler seed for the randomized-interleaving subcheck.  A case runs a
fixed battery of differential checks, each asserting an equivalence the
repo's property tests establish as exact:

``insert-export``
    Fast bulk insert vs the Fig. 3 reference kernels: identical stored
    pair sets (and, for unique keys, identical under a Volta-style
    random interleaving of the reference groups).
``query``
    Identical (values, found) for present and absent probe keys.
``erase-tombstone``
    Identical erase masks, identical post-erase query answers, and
    identical exports after re-inserting into the tombstoned table.
``multisplit``
    ``multisplit_fast`` bit-identical to ``multisplit`` — outputs,
    KernelReport, and TransactionCounter snapshots.
``distributed``
    The fused distribution path vs the reference path over an ``m``-GPU
    node: cascade answers, exports, per-phase accounting, device
    counters, and transfer logs all bit-identical.

Failures shrink greedily (smaller n, fewer GPUs, simpler skew) while
preserving the failing check, and are appended to a JSON seed corpus for
deterministic replay (``repro fuzz --replay <seed>``).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

__all__ = [
    "CHECK_NAMES",
    "FuzzCase",
    "FuzzFailure",
    "FuzzRunResult",
    "load_corpus",
    "replay_seed",
    "run_case",
    "run_fuzz",
    "shrink",
]

#: entries kept in the corpus (failures are always kept first)
CORPUS_MAX_ENTRIES = 200

_N_CHOICES = (12, 24, 48, 96, 160, 240)
_GROUP_CHOICES = (1, 2, 4, 8, 16, 32)
_LOAD_CHOICES = (0.35, 0.55, 0.75, 0.85, 0.92)
_SKEW_CHOICES = ("unique", "uniform", "zipf", "dup")
_TOMBSTONE_CHOICES = (0.0, 0.25, 0.25, 0.5)  # tombstoned paths weighted up
_M_CHOICES = (1, 2, 4, 8)


@dataclass(frozen=True)
class FuzzCase:
    """One randomized differential workload, fully determined by ``seed``."""

    seed: int
    n: int
    group_size: int
    load_factor: float
    skew: str
    tombstone_ratio: float
    m: int
    scheduler_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "FuzzCase":
        import random

        rng = random.Random(seed)
        return cls(
            seed=seed,
            n=rng.choice(_N_CHOICES),
            group_size=rng.choice(_GROUP_CHOICES),
            load_factor=rng.choice(_LOAD_CHOICES),
            skew=rng.choice(_SKEW_CHOICES),
            tombstone_ratio=rng.choice(_TOMBSTONE_CHOICES),
            m=rng.choice(_M_CHOICES),
            scheduler_seed=rng.randrange(1 << 16),
        )

    schema_version = 1

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys)."""
        return {"schema_version": self.schema_version, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__})

    def describe(self) -> str:
        return (
            f"seed={self.seed} n={self.n} g={self.group_size} "
            f"load={self.load_factor} skew={self.skew} "
            f"tombstones={self.tombstone_ratio} m={self.m} "
            f"scheduler_seed={self.scheduler_seed}"
        )


@dataclass
class FuzzFailure:
    """One differential mismatch, with everything needed to replay it."""

    case: FuzzCase
    check: str
    detail: str
    shrunk: FuzzCase | None = None

    def message(self) -> str:
        lines = [
            f"differential check {self.check!r} failed: {self.detail}",
            f"  case: {self.case.describe()}",
            f"  replay: repro fuzz --replay {self.case.seed}",
        ]
        if self.shrunk is not None and self.shrunk != self.case:
            lines.append(f"  shrunk: {self.shrunk.describe()}")
        return "\n".join(lines)


@dataclass
class FuzzRunResult:
    """Outcome of one fuzzing run."""

    cases_run: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0
    corpus_path: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} case(s) in {self.elapsed:.1f}s, "
            f"{len(self.failures)} failure(s)"
        ]
        for f in self.failures:
            lines.append(f.message())
        if self.corpus_path:
            lines.append(f"corpus: {self.corpus_path}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# workload derivation
# ---------------------------------------------------------------------------


def _workload(case: FuzzCase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, values, absent-probe-keys) for one case."""
    from ..workloads.distributions import (
        random_values,
        uniform_keys,
        unique_keys,
        zipf_keys,
    )

    n, seed = case.n, case.seed
    if case.skew == "unique":
        keys = unique_keys(n, seed=seed)
    elif case.skew == "uniform":
        keys = uniform_keys(n, seed=seed)
    elif case.skew == "zipf":
        keys = zipf_keys(n, s=1.3, universe=max(n // 2, 2), seed=seed)
    elif case.skew == "dup":
        # heavy exact duplication over a tiny universe
        universe = unique_keys(max(n // 6, 1), seed=seed)
        rng = np.random.default_rng(seed)
        keys = universe[rng.integers(0, universe.size, size=n)]
    else:  # pragma: no cover - guarded by _SKEW_CHOICES
        raise ValueError(f"unknown skew {case.skew!r}")
    values = random_values(n, seed=seed + 1)
    # absent keys: drawn from a disjoint stream, filtered against present
    candidates = unique_keys(n + 16, seed=seed + 2)
    absent = candidates[~np.isin(candidates, keys)][: max(n // 2, 1)]
    return keys.astype(np.uint32), values, absent.astype(np.uint32)


def _table_pair(case: FuzzCase, keys: np.ndarray):
    """Two identically-configured single-GPU tables (fast vs ref)."""
    from ..core.table import WarpDriveHashTable

    uniq = int(np.unique(keys).size)
    make = lambda: WarpDriveHashTable.for_load_factor(  # noqa: E731
        max(uniq, 1), case.load_factor, group_size=case.group_size
    )
    return make(), make()


def _diff(what: str, a: np.ndarray, b: np.ndarray) -> str | None:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return f"{what}: shape {a.shape} vs {b.shape}"
    if a.size and not (a == b).all():
        i = int(np.argmax(a != b))
        return f"{what}: first mismatch at [{i}]: {a[i]} vs {b[i]}"
    return None


def _sorted_pairs(table) -> tuple[np.ndarray, np.ndarray]:
    k, v = table.export()
    order = np.argsort(k, kind="stable")
    return k[order], v[order]


# ---------------------------------------------------------------------------
# differential checks
# ---------------------------------------------------------------------------


def _check_insert_export(case, keys, values, absent) -> str | None:
    from ..simt.scheduler import RandomScheduler, SequentialScheduler

    fast, ref = _table_pair(case, keys)
    fast.insert(keys, values, kernels="fast")
    ref.insert(keys, values, kernels="ref", scheduler=SequentialScheduler())
    fk, fv = _sorted_pairs(fast)
    rk, rv = _sorted_pairs(ref)
    err = _diff("export keys", fk, rk) or _diff("export values", fv, rv)
    if err:
        return err
    if len(fast) != len(ref):
        return f"size: {len(fast)} vs {len(ref)}"
    if case.skew == "unique":
        # unique keys: the stored pair set is schedule-independent, so a
        # randomized Volta-style interleaving must agree bit for bit
        _, ref2 = _table_pair(case, keys)
        ref2.insert(
            keys, values, kernels="ref",
            scheduler=RandomScheduler(seed=case.scheduler_seed),
        )
        rk2, rv2 = _sorted_pairs(ref2)
        err = _diff("export keys (random schedule)", fk, rk2) or _diff(
            "export values (random schedule)", fv, rv2
        )
        if err:
            return f"{err} [scheduler_seed={case.scheduler_seed}]"
    return None


def _check_query(case, keys, values, absent) -> str | None:
    fast, _ = _table_pair(case, keys)
    fast.insert(keys, values)
    probe = np.concatenate([keys, absent])
    vf, ff = fast.query(probe, kernels="fast")
    vr, fr = fast.query(probe, kernels="ref")
    return _diff("query found", ff, fr) or _diff("query values", vf, vr)


def _check_erase_tombstone(case, keys, values, absent) -> str | None:
    from ..workloads.distributions import random_values, unique_keys

    fast, ref = _table_pair(case, keys)
    fast.insert(keys, values)
    ref.insert(keys, values, kernels="ref")
    present = np.unique(keys)
    n_erase = int(round(present.size * case.tombstone_ratio)) or 1
    victims = present[:n_erase]
    ef = fast.erase(victims, kernels="fast")
    er = ref.erase(victims, kernels="ref")
    err = _diff("erase mask", ef, er)
    if err:
        return err
    probe = np.concatenate([keys, absent])
    vf, ff = fast.query(probe, kernels="fast")
    vr, fr = ref.query(probe, kernels="ref")
    err = _diff("post-erase found", ff, fr) or _diff("post-erase values", vf, vr)
    if err:
        return err
    # re-insert over the tombstones: both executors must reuse them into
    # the same final pair set
    fresh = unique_keys(n_erase, seed=case.seed + 3)
    fresh_v = random_values(n_erase, seed=case.seed + 4)
    fast.insert(fresh, fresh_v, kernels="fast")
    ref.insert(fresh, fresh_v, kernels="ref")
    fk, fv = _sorted_pairs(fast)
    rk, rv = _sorted_pairs(ref)
    return _diff("post-reinsert keys", fk, rk) or _diff(
        "post-reinsert values", fv, rv
    )


def _check_multisplit(case, keys, values, absent) -> str | None:
    import importlib

    from ..hashing.partition import hashed_partition
    from ..memory.layout import pack_pairs
    from ..simt.counters import TransactionCounter

    # the package rebinds `multisplit` to the function; resolve the module
    # (and call through it, so fault injection on its attributes is seen)
    multisplit_mod = importlib.import_module("repro.multigpu.multisplit")

    pairs = pack_pairs(keys, values)
    partition = hashed_partition(case.m)
    c_ref, c_fast = TransactionCounter(), TransactionCounter()
    ref = multisplit_mod.multisplit(
        pairs, partition, counter=c_ref, group_size=case.group_size
    )
    fast = multisplit_mod.multisplit_fast(
        pairs, partition, counter=c_fast, group_size=case.group_size
    )
    err = (
        _diff("multisplit pairs", ref.pairs, fast.pairs)
        or _diff("multisplit source_index", ref.source_index, fast.source_index)
        or _diff("multisplit counts", ref.counts, fast.counts)
        or _diff("multisplit offsets", ref.offsets, fast.offsets)
        or _diff(
            "multisplit probe_windows",
            ref.report.probe_windows,
            fast.report.probe_windows,
        )
    )
    if err:
        return err
    for field_name in ("load_sectors", "store_sectors", "warp_collectives"):
        a = getattr(ref.report, field_name)
        b = getattr(fast.report, field_name)
        if a != b:
            return f"multisplit report.{field_name}: {a} vs {b}"
    if c_ref.snapshot() != c_fast.snapshot():
        return f"multisplit counters: {c_ref.snapshot()} vs {c_fast.snapshot()}"
    return None


def _cascade_report_diff(ref, fused) -> str | None:
    for name in (
        "op",
        "num_ops",
        "h2d_bytes",
        "d2h_bytes",
        "alltoall_bytes",
        "alltoall_seconds",
        "reverse_bytes",
        "reverse_seconds",
    ):
        a, b = getattr(ref, name), getattr(fused, name)
        if a != b:
            return f"cascade.{name}: {a} vs {b}"
    err = _diff("cascade.h2d_per_gpu", ref.h2d_per_gpu, fused.h2d_per_gpu) or _diff(
        "cascade.d2h_per_gpu", ref.d2h_per_gpu, fused.d2h_per_gpu
    )
    if err:
        return err
    if (ref.partition_table is None) != (fused.partition_table is None):
        return "cascade.partition_table: presence mismatch"
    if ref.partition_table is not None:
        err = _diff(
            "cascade.partition_table",
            ref.partition_table.counts,
            fused.partition_table.counts,
        )
        if err:
            return err
    for label, a_list, b_list in (
        ("multisplit_reports", ref.multisplit_reports, fused.multisplit_reports),
        ("kernel_reports", ref.kernel_reports, fused.kernel_reports),
    ):
        if len(a_list) != len(b_list):
            return f"cascade.{label}: length {len(a_list)} vs {len(b_list)}"
        for i, (a, b) in enumerate(zip(a_list, b_list)):
            if a.as_dict() != b.as_dict():
                return f"cascade.{label}[{i}]: {a.as_dict()} vs {b.as_dict()}"
    return None


def _check_distributed(case, keys, values, absent) -> str | None:
    from ..multigpu import distributed_table as dist_mod
    from ..multigpu.topology import p100_nvlink_node

    tables = {}
    for mode in ("reference", "fused"):
        node = p100_nvlink_node(case.m)
        tables[mode] = dist_mod.DistributedHashTable.for_workload(
            node, keys, min(case.load_factor, 0.9),
            group_size=case.group_size, distribution=mode,
        )
    ref, fused = tables["reference"], tables["fused"]
    try:
        rep_ref = ref.insert(keys, values, source="host")
        rep_fused = fused.insert(keys, values, source="host")
        err = _cascade_report_diff(rep_ref, rep_fused)
        if err:
            return f"insert {err}"

        probe = np.concatenate([keys, absent])
        vr, fr, qrep_ref = ref.query(probe, source="host")
        vf, ff, qrep_fused = fused.query(probe, source="host")
        err = (
            _diff("distributed query values", vr, vf)
            or _diff("distributed query found", fr, ff)
            or _cascade_report_diff(qrep_ref, qrep_fused)
        )
        if err:
            return err

        present = np.unique(keys)
        n_erase = int(round(present.size * case.tombstone_ratio)) or 1
        victims = present[:n_erase]
        er, erep_ref = ref.erase(victims)
        ef, erep_fused = fused.erase(victims)
        err = _diff("distributed erase mask", er, ef) or _cascade_report_diff(
            erep_ref, erep_fused
        )
        if err:
            return err

        rk, rv = ref.export()
        fk, fv = fused.export()
        order_r = np.argsort(rk, kind="stable")
        order_f = np.argsort(fk, kind="stable")
        err = _diff("distributed export keys", rk[order_r], fk[order_f]) or _diff(
            "distributed export values", rv[order_r], fv[order_f]
        )
        if err:
            return err

        if ref.transfer_log.bytes_by_kind() != fused.transfer_log.bytes_by_kind():
            return (
                f"transfer log: {ref.transfer_log.bytes_by_kind()} vs "
                f"{fused.transfer_log.bytes_by_kind()}"
            )
        for gpu, (dr, df) in enumerate(
            zip(ref.topology.devices, fused.topology.devices)
        ):
            if dr.counter.snapshot() != df.counter.snapshot():
                return f"device {gpu} counters diverge"
    finally:
        ref.free()
        fused.free()
    return None


#: check battery, in execution order (first failure wins)
CHECKS = [
    ("insert-export", _check_insert_export),
    ("query", _check_query),
    ("erase-tombstone", _check_erase_tombstone),
    ("multisplit", _check_multisplit),
    ("distributed", _check_distributed),
]

CHECK_NAMES = tuple(name for name, _ in CHECKS)


def run_case(case: FuzzCase) -> FuzzFailure | None:
    """Run the full check battery on one case; first mismatch wins."""
    keys, values, absent = _workload(case)
    for name, check in CHECKS:
        try:
            detail = check(case, keys, values, absent)
        except Exception as exc:  # differential harness: crashes are findings
            detail = f"exception {type(exc).__name__}: {exc}"
        if detail is not None:
            return FuzzFailure(case=case, check=name, detail=detail)
    return None


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def _shrink_candidates(case: FuzzCase):
    """Simpler variants of ``case``, most aggressive first."""
    if case.n > _N_CHOICES[0]:
        for smaller in (case.n // 4, case.n // 2, (3 * case.n) // 4):
            if _N_CHOICES[0] <= smaller < case.n:
                yield replace(case, n=smaller)
    if case.m > 1:
        yield replace(case, m=1)
        if case.m > 2:
            yield replace(case, m=2)
    if case.skew != "unique":
        yield replace(case, skew="unique")
    if case.tombstone_ratio > 0.0:
        yield replace(case, tombstone_ratio=0.0)
    if case.group_size > 2:
        yield replace(case, group_size=2)
    if case.load_factor > _LOAD_CHOICES[0]:
        yield replace(case, load_factor=_LOAD_CHOICES[0])


def shrink(failure: FuzzFailure, *, max_attempts: int = 40) -> FuzzCase:
    """Greedy shrink: accept any simpler case failing the *same* check."""
    current = failure.case
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if attempts > max_attempts:
                break
            smaller_failure = run_case(candidate)
            if smaller_failure is not None and smaller_failure.check == failure.check:
                current = candidate
                improved = True
                break
    return current


# ---------------------------------------------------------------------------
# corpus + run loop
# ---------------------------------------------------------------------------


def load_corpus(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        return {"version": 1, "entries": []}
    try:
        data = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError):
        return {"version": 1, "entries": []}
    if not isinstance(data, dict) or "entries" not in data:
        return {"version": 1, "entries": []}
    return data


def _save_corpus(path: str | Path, corpus: dict) -> None:
    failures = [e for e in corpus["entries"] if e.get("status") == "fail"]
    passing = [e for e in corpus["entries"] if e.get("status") != "fail"]
    corpus["entries"] = (failures + passing)[:CORPUS_MAX_ENTRIES]
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")


def replay_seed(seed: int, *, inject: str | None = None) -> FuzzFailure | None:
    """Re-run the case derived from ``seed`` (optionally under a fault)."""
    case = FuzzCase.from_seed(seed)
    if inject is None:
        return run_case(case)
    from .inject import INJECTIONS

    with INJECTIONS[inject].apply():
        return run_case(case)


def run_fuzz(
    *,
    budget_seconds: float | None = None,
    max_cases: int | None = None,
    start_seed: int = 0,
    inject: str | None = None,
    corpus_path: str | Path | None = None,
    shrink_failures: bool = True,
    stop_on_failure: bool = False,
    log=None,
) -> FuzzRunResult:
    """Fuzz until the time budget or case cap runs out.

    Every failure and its shrunk form is appended to the corpus for
    replay.  Passing seeds are not recorded, so a clean run leaves the
    corpus file untouched.
    """
    if budget_seconds is None and max_cases is None:
        max_cases = 25
    result = FuzzRunResult()
    t0 = time.perf_counter()

    def _one(case: FuzzCase) -> None:
        failure = run_case(case)
        result.cases_run += 1
        if failure is not None:
            if shrink_failures:
                failure.shrunk = shrink(failure)
            result.failures.append(failure)
            if log is not None:
                log(failure.message())

    def _loop() -> None:
        seed = start_seed
        while True:
            if max_cases is not None and result.cases_run >= max_cases:
                return
            if (
                budget_seconds is not None
                and time.perf_counter() - t0 >= budget_seconds
            ):
                return
            _one(FuzzCase.from_seed(seed))
            if stop_on_failure and result.failures:
                return
            seed += 1

    if inject is not None:
        from .inject import INJECTIONS

        with INJECTIONS[inject].apply():
            _loop()
    else:
        _loop()

    result.elapsed = time.perf_counter() - t0
    if corpus_path is not None and result.failures:
        corpus = load_corpus(corpus_path)
        for failure in result.failures:
            entry = {
                "case": failure.case.to_dict(),
                "status": "fail",
                "check": failure.check,
                "detail": failure.detail,
            }
            if failure.shrunk is not None:
                entry["shrunk"] = failure.shrunk.to_dict()
            if inject is not None:
                entry["inject"] = inject
            corpus["entries"].append(entry)
        _save_corpus(corpus_path, corpus)
        result.corpus_path = str(corpus_path)
    return result
