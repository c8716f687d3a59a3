"""A6 — adaptive group sizing across a table's fill lifetime.

The §VI heuristic applied end-to-end: stream batches into one table from
empty to α = 0.99; the adaptive table retunes |g| before each batch and
its cumulative modelled insert time must track the best *single* fixed
|g| (and clearly beat the worst), without knowing the final load ahead
of time.
"""

from conftest import record

from repro.constants import VALID_GROUP_SIZES
from repro.core.adaptive import AdaptiveWarpDriveTable
from repro.core.table import WarpDriveHashTable
from repro.perfmodel.memmodel import projected_seconds
from repro.perfmodel.specs import P100
from repro.utils.tables import format_table
from repro.workloads.distributions import random_values, unique_keys

N = 1 << 15
BATCHES = 8
PAPER_SCALE = (1 << 27) / N


def _stream_cost(table) -> float:
    keys = unique_keys(N, seed=7)
    values = random_values(N, seed=8)
    total = 0.0
    for b in range(BATCHES):
        sl = slice(b * N // BATCHES, (b + 1) * N // BATCHES)
        rep = table.insert(keys[sl], values[sl])
        total += projected_seconds(
            rep, P100, table_bytes=table.table_bytes, scale=PAPER_SCALE
        )
    return total


def test_adaptive_tracks_best_fixed(benchmark):
    def run():
        capacity = int(N / 0.99) + 1
        fixed = {
            g: _stream_cost(WarpDriveHashTable(capacity, group_size=g))
            for g in VALID_GROUP_SIZES
        }
        adaptive_table = AdaptiveWarpDriveTable(capacity, group_size=32)
        adaptive = _stream_cost(adaptive_table)
        return fixed, adaptive, adaptive_table.tuning_history

    fixed, adaptive, history = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = [[f"fixed |g|={g}", f"{s * 1e3:.2f}"] for g, s in fixed.items()]
    rows.append(["adaptive (§VI heuristic)", f"{adaptive * 1e3:.2f}"])
    record(
        "extension_adaptive",
        format_table(
            ["configuration", "modelled insert ms (0 -> 0.99 fill)"],
            rows,
            title=f"A6 — adaptive |g| over a fill lifetime; retunes: {history}",
        ),
    )

    best = min(fixed.values())
    worst = max(fixed.values())
    assert adaptive <= best * 1.10  # within 10% of the oracle fixed choice
    assert adaptive < worst * 0.75  # and far from the worst
