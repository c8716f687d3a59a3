"""Timing proxies over the public entry points of each layer.

The traced run swaps these onto *instances*, never classes, so the
package's code is untouched.  An instance attribute shadows the class
method, so the table's own ``self.stage_insert(...)`` call inside
``insert`` goes through the proxy too.  Each proxy is called from one
thread only (the stager, the committing caller or the server's
coalescer), so the running sums need no lock.
"""

from __future__ import annotations

import time


class Timed:
    """Callable stand-in for a bound method: sums its wall time.

    ``on_return(args, result, seconds)`` runs after each call, outside
    the timed interval.
    """

    def __init__(self, fn, on_return=None):
        self.fn = fn
        self.on_return = on_return
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self.fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        self.seconds += elapsed
        if self.on_return is not None:
            self.on_return(args, out, elapsed)
        return out


def install(obj, hooks: dict) -> dict[str, Timed]:
    """Wrap each named method of ``obj``; ``hooks`` maps name -> on_return."""
    proxies = {}
    for name, hook in hooks.items():
        proxy = Timed(getattr(obj, name), hook)
        setattr(obj, name, proxy)
        proxies[name] = proxy
    return proxies


def uninstall(obj, proxies: dict[str, Timed]) -> None:
    """Put back whatever each proxy wrapped."""
    for name, proxy in proxies.items():
        setattr(obj, name, proxy.fn)


def witness_kernels(table, seen: set) -> None:
    """Record the kernel backend every committed cascade actually ran.

    Installed on every run, traced or not: a silent fallback from
    ``kernels="compiled"`` to ``"fast"`` means the run measured another
    program, so the run fails.  One set insert per cascade is the cost.
    """
    install(table, {"commit_staged": lambda a, out, s: seen.add(a[0].report.kernels)})


class CascadeLedger:
    """Running sums over the ``CascadeReport`` of every committed cascade.

    Reports are folded in as they arrive and then dropped: a report holds
    per-key probe-window arrays, and one ingest pass commits 128 of them.
    """

    def __init__(self):
        self.ops = {"insert": 0, "query": 0}
        self.windows = {"insert": 0, "query": 0}
        self.commit_s = {"insert": 0.0, "query": 0.0}
        self.cas_attempts = 0
        self.exchange_bytes = 0
        self.imbalance_sum = 0.0
        self.cascades = 0
        self.kernel_s = 0.0
        self.distribution_s = 0.0
        self.grow_s = 0.0

    def add(self, report, commit_seconds: float) -> None:
        op = report.op
        self.ops[op] += report.num_ops
        self.windows[op] += sum(k.total_windows for k in report.kernel_reports)
        self.commit_s[op] += commit_seconds
        if op == "insert":
            self.cas_attempts += sum(k.cas_attempts for k in report.kernel_reports)
        self.exchange_bytes += report.alltoall_bytes + report.reverse_bytes
        self.imbalance_sum += report.load_imbalance
        self.cascades += 1
        self.kernel_s += report.kernel_wall_seconds
        self.distribution_s += report.distribution_wall_seconds
        self.grow_s += report.grow_wall_seconds

    def counts(self) -> dict[str, float]:
        """Work per key.  Repeats exactly for one set of inputs and order."""

        def per(num, den):
            return num / den if den else 0.0

        keys = self.ops["insert"] + self.ops["query"]
        return {
            "core.probe_windows_per_key.insert": per(
                self.windows["insert"], self.ops["insert"]
            ),
            "core.probe_windows_per_key.query": per(
                self.windows["query"], self.ops["query"]
            ),
            "core.cas_per_insert": per(self.cas_attempts, self.ops["insert"]),
            "multigpu.exchange_bytes_per_key": per(self.exchange_bytes, keys),
            "multigpu.load_imbalance": per(self.imbalance_sum, self.cascades),
        }


class TableTrace:
    """Proxies on a ``DistributedHashTable``'s staging and commit calls.

    With ``cascades=True`` (the serving path) the ``query`` and ``insert``
    entry points are timed as well; each wraps one stage and one commit.
    """

    def __init__(self, table, *, cascades: bool = False):
        self.table = table
        self.ledger = CascadeLedger()
        self.cascade_keys = 0
        hooks = {
            "stage_insert": None,
            "stage_query": None,
            "commit_staged": lambda a, out, s: self.ledger.add(a[0].report, s),
        }
        if cascades:
            hooks["query"] = self._count_keys
            hooks["insert"] = self._count_keys
        self.proxies = install(table, hooks)

    def _count_keys(self, args, out, seconds) -> None:
        self.cascade_keys += len(args[0])

    def seconds(self, *names: str) -> float:
        return sum(self.proxies[name].seconds for name in names)

    def close(self) -> None:
        uninstall(self.table, self.proxies)


class CacheTrace:
    """Proxies on the server's ``HotKeyCache`` lookup/admit/invalidate."""

    NAMES = ("lookup", "admit", "invalidate")

    def __init__(self, cache):
        self.cache = cache
        self.proxies = install(cache, dict.fromkeys(self.NAMES))

    def seconds(self) -> float:
        return sum(p.seconds for p in self.proxies.values())

    def close(self) -> None:
        uninstall(self.cache, self.proxies)
