"""TraceRecorder: hierarchical spans, shard-span merging, canonical trees."""

import threading

from repro.exec.metrics import ShardSpan
from repro.obs.trace import MEASURED, MODELLED, TraceRecorder


class TestSpans:
    def test_span_ids_unique_and_parented(self):
        rec = TraceRecorder()
        with rec.span("outer", "cascade") as outer:
            with rec.span("inner", "kernel") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.span_id != inner.span_id
        assert len(rec) == 2
        assert outer.end >= inner.end >= inner.start >= outer.start

    def test_sibling_spans_share_parent(self):
        rec = TraceRecorder()
        with rec.span("phase", "cascade") as parent:
            with rec.span("a", "kernel") as a:
                pass
            with rec.span("b", "kernel") as b:
                pass
        assert a.parent_id == b.parent_id == parent.span_id
        assert [s.name for s in rec.children(parent.span_id)] == ["a", "b"]

    def test_live_attrs_updatable_inside_block(self):
        rec = TraceRecorder()
        with rec.span("transfer", "transfer") as sp:
            sp.attrs["nbytes"] = 4096
        assert rec.spans[0].attrs["nbytes"] == 4096

    def test_kind_defaults_measured(self):
        rec = TraceRecorder()
        with rec.span("a", "phase"):
            pass
        rec.add_span("b", "phase", 0.0, 1.0, kind=MODELLED)
        kinds = {s.name: s.kind for s in rec.spans}
        assert kinds == {"a": MEASURED, "b": MODELLED}

    def test_parent_stack_is_thread_local(self):
        rec = TraceRecorder()
        seen = {}

        def worker():
            with rec.span("worker-span", "kernel") as sp:
                seen["parent"] = sp.parent_id

        with rec.span("main-span", "cascade"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # the worker thread's stack starts empty: no cross-thread parent
        assert seen["parent"] is None


class TestShardSpanMerge:
    def test_offset_and_parent_applied(self):
        rec = TraceRecorder()
        with rec.span("dispatch", "engine") as sp:
            pass
        merged = rec.record_shard_spans(
            [ShardSpan(0, "insert", 0.0, 0.5), ShardSpan(1, "insert", 0.1, 0.4)],
            offset=2.0,
            parent_id=sp.span_id,
        )
        assert [m.start for m in merged] == [2.0, 2.1]
        assert all(m.parent_id == sp.span_id for m in merged)
        assert merged[0].name == "insert shard 0"
        assert merged[0].attrs == {"shard": 0, "op": "insert"}

    def test_worker_pid_preserved(self):
        rec = TraceRecorder()
        merged = rec.record_shard_spans([ShardSpan(0, "query", 0.0, 1.0, pid=4242)])
        assert merged[0].pid == 4242

    def test_node_level_span_name(self):
        rec = TraceRecorder()
        merged = rec.record_shard_spans([ShardSpan(-1, "insert batch", 0.0, 1.0)])
        assert merged[0].name == "insert batch"


class TestTree:
    def test_tree_ignores_timing_ids_and_pids(self):
        a, b = TraceRecorder(), TraceRecorder()
        for rec, pid in ((a, 100), (b, 200)):
            with rec.span("cascade", "cascade"):
                rec.record_shard_spans(
                    [ShardSpan(0, "insert", 0.0, 1.0, pid=pid)]
                )
        assert a.tree() == b.tree()

    def test_makespan_and_categories(self):
        rec = TraceRecorder()
        rec.add_span("x", "kernel", 0.0, 2.0)
        rec.add_span("y", "transfer", 1.0, 3.0)
        assert rec.makespan == 3.0
        assert rec.categories() == {"kernel", "transfer"}
        assert len(rec.by_category("kernel")) == 1

    def test_to_dict_sorted_and_versioned(self):
        rec = TraceRecorder(trace_id="deadbeef")
        rec.add_span("late", "kernel", 1.0, 2.0)
        rec.add_span("early", "kernel", 0.0, 1.0)
        payload = rec.to_dict()
        assert payload["trace_id"] == "deadbeef"
        assert payload["schema_version"] == 1
        assert [s["name"] for s in payload["spans"]] == ["early", "late"]
