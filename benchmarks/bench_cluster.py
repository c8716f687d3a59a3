"""Modelled cluster scale-out sweep — 1/2/4 nodes at fixed total keys.

Runs the hierarchical cascade through ``cluster:Nx4`` topologies at a
fixed keyspace (strong scaling, the paper's Fig. 9 discipline) plus a
NIC-bandwidth sensitivity sweep on the largest shape, and writes the
rows to ``BENCH_cluster.json`` at the repo root as a whole file.  Every
field is modelled, so a rerun on any host rewrites the same bytes.
"""

import json
from pathlib import Path

from conftest import record

from repro.bench import (
    cluster_scaling_efficiency,
    format_cluster_records,
    run_cluster_suite,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "BENCH_cluster.json"

N = 1 << 17
NODE_COUNTS = (1, 2, 4)


def write_rows(records, path: Path) -> Path:
    path.write_text(json.dumps([r.to_dict() for r in records], indent=2) + "\n")
    return path


def test_cluster_scaling(benchmark):
    records = benchmark.pedantic(
        lambda: run_cluster_suite(n=N, node_counts=NODE_COUNTS, seed=11),
        iterations=1,
        rounds=1,
    )
    write_rows(records, RESULTS)
    record("cluster", format_cluster_records(records))

    shapes = {(r.bench, r.num_nodes) for r in records}
    for nodes in NODE_COUNTS:
        assert ("cluster_insert", nodes) in shapes
        assert ("cluster_query", nodes) in shapes
    # the sensitivity sweep re-runs the largest shape off-default
    assert ("cluster_nic_insert", max(NODE_COUNTS)) in shapes
    assert all(r.seconds > 0 and r.n == N for r in records)
    # single-node shapes never touch the NIC; multi-node ones must
    for r in records:
        if r.num_nodes == 1:
            assert r.alltoall_inter_bytes == 0
        else:
            assert r.alltoall_inter_bytes > 0
    # a slower NIC can only slow the cascade down
    nic = sorted(
        (r for r in records if r.bench == "cluster_nic_insert"),
        key=lambda r: r.nic_bandwidth,
    )
    assert all(a.seconds >= b.seconds for a, b in zip(nic, nic[1:]))
    assert 0.0 < cluster_scaling_efficiency(records) <= 1.0


if __name__ == "__main__":
    rows = run_cluster_suite(n=N, node_counts=NODE_COUNTS, seed=11)
    out = write_rows(rows, RESULTS)
    print(format_cluster_records(rows))
    print(f"scaling efficiency: {cluster_scaling_efficiency(rows):.2f}")
    print(f"wrote {out}")
