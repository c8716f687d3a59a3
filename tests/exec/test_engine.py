"""Unit tests for the shard-execution engine building blocks."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import HashTableConfig
from repro.core.report import KernelReport
from repro.core.table import WarpDriveHashTable
from repro.errors import ConfigurationError
from repro.exec import (
    MeasuredTimeline,
    SerialEngine,
    ShardKernelTask,
    ShardSpan,
    ThreadEngine,
    available_backends,
    create_engine,
)
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.pipeline.driver import AsyncCascadeDriver
from repro.workloads import random_values, unique_keys


def _table(n: int) -> WarpDriveHashTable:
    config = HashTableConfig.for_load_factor(n, 0.9, group_size=4)
    return WarpDriveHashTable(config=config)


def _tasks(tables, keys, values) -> list[ShardKernelTask]:
    return [
        ShardKernelTask(
            shard=i,
            op="insert",
            slots=t.slots,
            seq=t.seq,
            keys=keys[i],
            values=values[i],
        )
        for i, t in enumerate(tables)
    ]


class TestRegistry:
    def test_backends_listed(self):
        assert available_backends() == ("serial", "thread")

    def test_create_by_name(self):
        with create_engine("serial") as eng:
            assert isinstance(eng, SerialEngine)
        with create_engine("thread", workers=2) as eng:
            assert isinstance(eng, ThreadEngine)
            assert eng.workers == 2

    def test_create_passthrough(self):
        eng = SerialEngine()
        assert create_engine(eng) is eng

    def test_unknown_backend(self):
        # "process" is the retired worker-process backend
        for name in ("cuda", "process"):
            with pytest.raises(
                ConfigurationError,
                match=r"unknown engine .*\['serial', 'thread'\]",
            ):
                create_engine(name)

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            ThreadEngine(workers=-3)


class TestSerialThread:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_runs_all_ops(self, executor):
        n = 2000
        keys = unique_keys(n, seed=3)
        values = random_values(n, seed=4)
        table = _table(n)
        with create_engine(executor, workers=2) as eng:
            res = eng.run(_tasks([table], [keys], [values]))[0]
            table.absorb_insert(keys, values, res.report, res.status)
            assert len(table) == n

            qres = eng.run(
                [
                    ShardKernelTask(
                        shard=0, op="query", slots=table.slots,
                        seq=table.seq, keys=keys,
                    )
                ]
            )[0]
            assert qres.found.all()
            assert (qres.values == values).all()

            eres = eng.run(
                [
                    ShardKernelTask(
                        shard=0, op="erase", slots=table.slots,
                        seq=table.seq, keys=keys[: n // 2],
                    )
                ]
            )[0]
            table.absorb_erase(eres.report)
            assert eres.erased.all()
            assert len(table) == n - n // 2

    def test_results_in_task_order_with_spans(self):
        n = 500
        tables = [_table(n) for _ in range(3)]
        keys = [unique_keys(n, seed=s) for s in (1, 2, 3)]
        values = [random_values(n, seed=s) for s in (4, 5, 6)]
        with create_engine("thread", workers=3) as eng:
            results = eng.run(_tasks(tables, keys, values))
        assert [r.shard for r in results] == [0, 1, 2]
        # spans rebased: earliest start is exactly 0, all durations > 0
        starts = [r.span.start for r in results]
        assert min(starts) == 0.0
        assert all(r.span.duration > 0 for r in results)

    def test_unknown_op_rejected(self):
        table = _table(64)
        task = ShardKernelTask(
            shard=0, op="upsert", slots=table.slots, seq=table.seq,
            keys=unique_keys(8, seed=1),
        )
        with pytest.raises(ConfigurationError, match="unknown kernel op"):
            SerialEngine().run([task])


class TestMetrics:
    def test_timeline_aggregates(self):
        tl = MeasuredTimeline()
        tl.add(ShardSpan(0, "insert", 0.0, 1.0))
        tl.add(ShardSpan(1, "insert", 0.5, 2.0))
        assert tl.makespan == 2.0
        assert tl.busy_seconds == pytest.approx(2.5)
        assert tl.overlap_speedup == pytest.approx(1.25)
        assert len(tl.shard_spans(1)) == 1

    def test_extend_with_offset(self):
        tl = MeasuredTimeline()
        tl.extend([ShardSpan(0, "query", 0.0, 1.0)], offset=3.0)
        assert tl.spans[0].start == 3.0
        assert tl.makespan == 4.0

    def test_render_rows(self):
        tl = MeasuredTimeline()
        tl.add(ShardSpan(-1, "insert batch", 0.0, 2.0))
        tl.add(ShardSpan(0, "insert", 0.0, 1.0))
        art = tl.render(width=40)
        assert "node" in art and "gpu0" in art

    def test_empty_timeline(self):
        tl = MeasuredTimeline()
        assert tl.makespan == 0.0
        assert tl.overlap_speedup == 0.0
        assert tl.render() == "(empty measured timeline)"


class TestReportHelpers:
    def test_empty_classmethod(self):
        rep = KernelReport.empty("query", 8)
        assert rep.op == "query"
        assert rep.num_ops == 0
        assert rep.group_size == 8
        assert rep.total_windows == 0

    def test_charge_to_matches_inline_counting(self):
        """Counter-less kernel + charge_to == counter-threaded kernel."""
        from repro.core.bulk import bulk_insert
        from repro.simt.counters import TransactionCounter

        n = 1500
        keys = unique_keys(n, seed=11)
        values = random_values(n, seed=12)
        t_inline, t_charged = _table(n), _table(n)

        inline = TransactionCounter()
        bulk_insert(t_inline.slots, t_inline.seq, keys, values, inline)

        charged = TransactionCounter()
        report, _ = bulk_insert(t_charged.slots, t_charged.seq, keys, values, None)
        report.charge_to(charged)

        assert np.array_equal(t_inline.slots, t_charged.slots)
        for attr in (
            "load_sectors", "store_sectors", "cas_attempts", "cas_successes",
            "warp_collectives", "window_probes", "kernel_launches",
        ):
            assert getattr(inline, attr) == getattr(charged, attr), attr


class TestSubmitPoll:
    """The non-blocking submit/poll path behind the pipeline committer."""

    def test_pending_wave_needs_results_or_collect(self):
        from repro.exec import PendingWave

        with pytest.raises(ConfigurationError):
            PendingWave()

    def test_completed_wave_is_done_and_idempotent(self):
        from repro.exec import PendingWave

        wave = PendingWave([1, 2, 3])
        assert wave.done()
        assert wave.result() == [1, 2, 3]
        assert wave.result() == [1, 2, 3]

    def test_deferred_wave_collects_once(self):
        from repro.exec import PendingWave

        calls = []

        def collect():
            calls.append(1)
            return ["r"]

        wave = PendingWave(poll=lambda: False, collect=collect)
        assert not wave.done()
        assert wave.result() == ["r"]
        assert wave.result() == ["r"]
        assert calls == [1]
        assert wave.done()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_submit_matches_run(self, executor):
        """submit().result() == run(): same results, same table effects."""
        n = 800
        keys = [unique_keys(n, seed=s) for s in (7, 8)]
        values = [random_values(n, seed=s) for s in (9, 10)]
        run_tables = [_table(n) for _ in range(2)]
        sub_tables = [_table(n) for _ in range(2)]
        with create_engine(executor, workers=2) as eng:
            ran = eng.run(_tasks(run_tables, keys, values))
            wave = eng.submit(_tasks(sub_tables, keys, values))
            submitted = wave.result()
        assert wave.done()
        assert [r.shard for r in submitted] == [r.shard for r in ran]
        for rt, st in zip(run_tables, sub_tables):
            assert np.array_equal(rt.slots, st.slots)
        for r, s in zip(ran, submitted):
            assert r.report.num_ops == s.report.num_ops
            assert r.status is None or (r.status == s.status).all()

    def test_thread_submit_overlaps_host_work(self):
        """The thread wave really is in flight: submit returns before
        the kernels complete and result() joins them."""
        n = 4000
        tables = [_table(n) for _ in range(2)]
        keys = [unique_keys(n, seed=s) for s in (21, 22)]
        values = [random_values(n, seed=s) for s in (23, 24)]
        with create_engine("thread", workers=2) as eng:
            wave = eng.submit(_tasks(tables, keys, values))
            results = wave.result()
        assert len(results) == 2
        assert all(r.report.num_ops == n for r in results)

    def test_empty_submit(self):
        with create_engine("thread", workers=1) as eng:
            wave = eng.submit([])
        assert wave.done()
        assert wave.result() == []

    def test_submit_span_tree_matches_run(self):
        """Traced dispatch spans are backend-identical for run vs
        submit — collection happens at result() under the same parent."""
        from repro.obs import runtime as obs

        n = 600
        keys = [unique_keys(n, seed=31)]
        values = [random_values(n, seed=32)]

        def trace(call):
            with obs.session() as (recorder, _):
                table = _table(n)
                with create_engine("thread", workers=1) as eng:
                    call(eng, _tasks([table], keys, values))
            return [
                (s.name, s.category) for s in recorder.spans
            ]

        ran = trace(lambda eng, tasks: eng.run(tasks))
        submitted = trace(lambda eng, tasks: eng.submit(tasks).result())
        assert ran == submitted


def _threads(*prefixes: str) -> set[threading.Thread]:
    return {
        t for t in threading.enumerate() if t.name.startswith(prefixes)
    }


class TestNoThreadLeak:
    """Closing a table (and its driver) stops every thread it started."""

    PREFIXES = ("repro-shard", "repro-stager")

    def _table(self, keys) -> DistributedHashTable:
        return DistributedHashTable.for_workload(
            p100_nvlink_node(4), keys, 0.8, engine="thread", workers=2
        )

    def test_free_after_cascade_stops_shard_threads(self):
        before = _threads(*self.PREFIXES)
        keys = unique_keys(4000, seed=41)
        table = self._table(keys)
        table.insert(keys, keys, source="device")
        assert _threads("repro-shard") - before  # the pool really ran
        table.free()
        assert not _threads(*self.PREFIXES) - before

    def test_close_after_depth2_stream_stops_all_threads(self):
        before = _threads(*self.PREFIXES)
        keys = unique_keys(4000, seed=42)
        table = self._table(keys)
        driver = AsyncCascadeDriver(table, depth=2)
        batches = np.array_split(keys, 4)
        driver.insert_stream((b, b) for b in batches)
        result = driver.query_stream(batches)
        assert result.found.all()
        driver.close()
        table.free()
        assert not _threads(*self.PREFIXES) - before
