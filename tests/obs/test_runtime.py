"""The global obs switch: zero-overhead when off, scoped sessions,
backend-independent span trees (serial == thread).
"""

from repro import obs
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.workloads.distributions import random_values, unique_keys


class TestDisabled:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_span_is_shared_noop(self):
        """Disabled spans are one shared nullcontext — no allocation."""
        a = obs.span("x", "phase")
        b = obs.span("y", "kernel", attr=1)
        assert a is b
        with a as live:
            assert live is None

    def test_facade_noops(self):
        assert obs.add_span("x", "phase", 0.0, 1.0) is None
        assert obs.record_shard_spans([]) == []
        obs.observe_cascade(None)  # must not touch the report
        obs.observe_kernel(None)
        obs.observe_transfers(None)

    def test_nothing_recorded_when_disabled(self):
        node = p100_nvlink_node(2)
        keys = unique_keys(500, seed=31)
        table = DistributedHashTable.for_workload(node, keys, 0.8)
        table.insert(keys, keys, source="host")
        table.free()
        assert obs.get_recorder() is None or not obs.enabled()


class TestSession:
    def test_session_scopes_state(self):
        assert not obs.enabled()
        with obs.session() as (recorder, metrics):
            assert obs.enabled()
            assert obs.get_recorder() is recorder
            assert obs.get_metrics() is metrics
            with obs.span("x", "phase"):
                pass
        assert not obs.enabled()
        assert len(recorder.spans) == 1  # readable after the session

    def test_nested_sessions_restore(self):
        with obs.session() as (outer, _):
            with obs.session() as (inner, _):
                assert obs.get_recorder() is inner
            assert obs.get_recorder() is outer

    def test_configure_roundtrip(self):
        from repro.obs import runtime

        recorder, metrics = obs.configure(enabled=True)
        try:
            assert obs.enabled() and recorder is not None and metrics is not None
            with obs.span("x", "phase"):
                pass
            assert len(recorder.spans) == 1
        finally:
            obs.configure(enabled=False)
            runtime._STATE.recorder = None
            runtime._STATE.metrics = None
        assert not obs.enabled()


def _traced_cascade(engine, workers=None):
    node = p100_nvlink_node(4)
    n = 2000
    keys = unique_keys(n, seed=33)
    values = random_values(n, seed=34)
    with obs.session() as (recorder, metrics):
        table = DistributedHashTable.for_workload(
            node, keys, 0.85, engine=engine, workers=workers
        )
        try:
            table.insert(keys, values, source="host")
            _, found, _ = table.query(keys, source="host")
        finally:
            table.free()
    assert found.all()
    return recorder, metrics


class TestInstrumentation:
    def test_cascade_span_taxonomy(self):
        recorder, metrics = _traced_cascade("serial")
        cats = recorder.categories()
        assert {"cascade", "transfer", "distribution", "engine", "kernel"} <= cats
        names = {s.name for s in recorder.spans}
        assert {"H2D", "multisplit", "all-to-all", "kernel phase"} <= names
        # per-shard kernel spans for all 4 GPUs on both ops
        shard_spans = [
            s for s in recorder.by_category("kernel") if "shard" in s.name
        ]
        assert {s.attrs["shard"] for s in shard_spans} == {0, 1, 2, 3}
        # metrics observed alongside the trace
        assert metrics.counter("cascade.insert.count") == 1
        assert metrics.counter("transfer.h2d.bytes") > 0

    def test_shard_spans_nest_under_engine_dispatch(self):
        recorder, _ = _traced_cascade("serial")
        dispatch = [s for s in recorder.spans if s.name.startswith("dispatch")]
        assert dispatch
        for d in dispatch:
            kids = recorder.children(d.span_id)
            assert kids and all(k.category == "kernel" for k in kids)

    def test_hierarchy_resolves_to_cascade_roots(self):
        recorder, _ = _traced_cascade("serial")
        by_id = {s.span_id: s for s in recorder.spans}
        roots = set()
        for s in recorder.spans:
            cur = s
            while cur.parent_id is not None:
                cur = by_id[cur.parent_id]
            roots.add(cur.name)
        assert roots == {"insert cascade", "query cascade"}


class TestBackendEquivalence:
    def test_serial_vs_thread_tree(self):
        serial, _ = _traced_cascade("serial")
        thread, _ = _traced_cascade("thread", workers=2)
        assert serial.tree() == thread.tree()
