"""Reportable contract: every report type serializes through one path.

Each ``to_dict()`` payload must be plain-JSON (``json.dumps`` succeeds),
carry a ``schema_version``, use stable snake_case keys, and contain no
NaN/infinity (non-finite floats collapse to ``None``).
"""

import json
import math

import numpy as np
import pytest

from repro.exec.metrics import ShardSpan
from repro.memory.transfer import MemcpyKind
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.obs.protocol import SCHEMA_VERSION, Reportable, to_jsonable
from repro.pipeline.driver import AsyncCascadeDriver
from repro.pipeline.timeline import Span
from repro.workloads.distributions import random_values, unique_keys


def _walk(value, path="$"):
    """Yield every (path, leaf) in a nested JSON-ish structure."""
    if isinstance(value, dict):
        for k, v in value.items():
            assert isinstance(k, str), f"{path}: non-string key {k!r}"
            yield from _walk(v, f"{path}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _walk(v, f"{path}[{i}]")
    else:
        yield path, value


def _assert_reportable(obj):
    assert isinstance(obj, Reportable)
    payload = obj.to_dict()
    assert payload["schema_version"] == type(obj).schema_version
    json.dumps(payload)  # raises on anything non-JSON
    for path, leaf in _walk(payload):
        assert leaf is None or isinstance(leaf, (bool, int, float, str)), (
            f"{path}: non-plain leaf {type(leaf).__name__}"
        )
        if isinstance(leaf, float):
            assert math.isfinite(leaf), f"{path}: non-finite float"
    return payload


@pytest.fixture(scope="module")
def cascade():
    """One insert + query + erase cascade's worth of report objects."""
    node = p100_nvlink_node(4)
    n = 2000
    keys = unique_keys(n, seed=21)
    values = random_values(n, seed=22)
    table = DistributedHashTable.for_workload(node, keys, 0.85)
    insert_report = table.insert(keys, values, source="host")
    _, _, query_report = table.query(keys, source="host")
    _, erase_report = table.erase(keys[: n // 4], source="host")
    records = list(table.transfer_log.records)
    yield {
        "table": table,
        "insert": insert_report,
        "query": query_report,
        "erase": erase_report,
        "transfers": records,
    }
    table.free()


class TestReportTypes:
    def test_kernel_report(self, cascade):
        report = cascade["insert"].kernel_reports[0]
        payload = _assert_reportable(report)
        assert payload["op"] == "insert"
        assert payload["num_ops"] == report.num_ops
        # the deprecated alias serves the identical payload
        assert report.as_dict() == report.to_dict()

    def test_cascade_report_all_ops(self, cascade):
        for op in ("insert", "query", "erase"):
            payload = _assert_reportable(cascade[op])
            assert payload["op"] == op
            assert payload["kernel_reports"], op
            assert payload["kernel_spans"], op

    def test_transfer_record(self, cascade):
        record = cascade["transfers"][0]
        payload = _assert_reportable(record)
        assert payload["kind"] in {k.name.lower() for k in MemcpyKind}
        assert payload["nbytes"] == record.nbytes

    def test_shard_span(self):
        span = ShardSpan(2, "insert", 0.5, 0.75, pid=1234)
        payload = _assert_reportable(span)
        assert payload["shard"] == 2 and payload["pid"] == 1234
        assert payload["duration"] == pytest.approx(0.25)
        assert span.shifted(-0.5).pid == 1234  # pid survives rebasing

    def test_pipeline_span(self):
        payload = _assert_reportable(Span(0, "kernel", "gpu", 1.0, 2.0))
        assert payload["resource"] == "gpu"

    def test_stream_result(self, cascade):
        table = cascade["table"]
        driver = AsyncCascadeDriver(table, num_threads=2)
        keys = unique_keys(500, seed=23)
        res = driver.query_stream([keys])
        payload = _assert_reportable(res)
        assert payload["num_ops"] == 500
        assert payload["measured_makespan"] is None  # measure=False
        assert payload["spans"]

    def test_cluster_scale_record(self):
        from repro.bench import ClusterScaleRecord

        rec = ClusterScaleRecord(
            bench="cluster_insert", n=100, num_nodes=2, gpus_per_node=4,
            m=8, nic_bandwidth=12.5e9, seconds=1e-4, ops_per_s=1e6,
            alltoall_intra_seconds=1e-6, alltoall_inter_seconds=2e-5,
            alltoall_inter_bytes=4096,
        )
        payload = _assert_reportable(rec)
        assert payload["num_nodes"] == 2
        # every field is modelled: no host stamp rides on the row
        assert "cpus" not in payload

    def test_racecheck_report(self):
        from repro.sanitize.mutants import run_clean
        from repro.simt.scheduler import RoundRobinScheduler

        report = run_clean(RoundRobinScheduler())
        payload = _assert_reportable(report)
        assert payload["clean"] is True and payload["findings"] == []

    def test_fuzz_case(self):
        from repro.sanitize.fuzz import FuzzCase

        case = FuzzCase.from_seed(5)
        payload = case.to_dict()
        json.dumps(payload)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert FuzzCase.from_dict(payload) == case  # stamp doesn't break replay


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float32(1.5)) == 1.5
        assert to_jsonable(np.bool_(True)) is True
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_nonfinite_floats_become_none(self):
        assert to_jsonable(float("nan")) is None
        assert to_jsonable(float("inf")) is None
        assert to_jsonable(np.float64("nan")) is None

    def test_enum_collapses(self):
        assert to_jsonable(MemcpyKind.H2D) == "host_to_device"

    def test_nested_reportables_recurse(self):
        span = ShardSpan(0, "query", 0.0, 1.0)
        out = to_jsonable({"spans": [span]})
        assert out["spans"][0]["op"] == "query"

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestCascadeAccounting:
    """The bugfix sweep: wall-clock fields populated on every op."""

    @pytest.mark.parametrize("op", ["insert", "query", "erase"])
    def test_distribution_and_kernel_accounting(self, cascade, op):
        report = cascade[op]
        assert report.distribution_wall_seconds > 0.0, op
        assert report.kernel_spans, op
        assert report.kernel_wall_seconds > 0.0, op
        assert all(s.duration >= 0 for s in report.kernel_spans)
