"""End-to-end server/client basics over a unix socket.

One live :class:`KVServer` per test class (function-scoped where the
test mutates global counters), real sockets, real threads — these are
the serving layer's integration smoke: inserts visible to queries,
erases visible to both, cache coherence across mutation, per-client
accounting, and the STATS/snapshot surfaces.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import KVClient, KVServer
from repro.serve.cache import HotKeyCache
from repro.serve.protocol import (
    Frame,
    FrameType,
    encode_query,
    read_frame,
    write_frame,
)
from repro.workloads.distributions import random_values, unique_keys


@pytest.fixture
def server():
    srv = KVServer.create(
        num_gpus=4, capacity=1 << 13, cache_size=512, batch_window=0.001
    ).start()
    yield srv
    srv.close()


@pytest.fixture
def client(server):
    with KVClient(server.address, name="it-client") as c:
        yield c


class TestRoundTrips:
    def test_insert_then_query(self, server, client):
        keys = unique_keys(2048, seed=3)
        values = random_values(2048, seed=4)
        assert client.insert(keys, values) == 2048
        got, found = client.query(keys)
        assert found.all()
        assert np.array_equal(got, values)
        assert len(server.table) == 2048

    def test_missing_keys_take_the_default(self, client):
        keys = unique_keys(64, seed=5)
        got, found = client.query(keys, default=0xDEAD)
        assert not found.any()
        assert (got == 0xDEAD).all()

    def test_erase_then_query(self, client):
        keys = unique_keys(512, seed=6)
        values = random_values(512, seed=7)
        client.insert(keys, values)
        erased = client.erase(keys[:256])
        assert erased.all()
        _got, found = client.query(keys)
        assert not found[:256].any()
        assert found[256:].all()

    def test_empty_batches_round_trip(self, client):
        empty = np.empty(0, dtype=np.uint32)
        assert client.insert(empty, empty) == 0
        values, found = client.query(empty)
        assert values.size == 0 and found.size == 0
        assert client.erase(empty).size == 0

    def test_hello_learns_topology(self, server, client):
        assert client.num_gpus == server.table.num_gpus
        assert client.server_cache_enabled is True


class TestCacheCoherence:
    def test_repeat_queries_hit_the_cache(self, server, client):
        keys = unique_keys(256, seed=10)
        values = random_values(256, seed=11)
        client.insert(keys, values)
        for _ in range(3):
            got, found = client.query(keys)
            assert found.all() and np.array_equal(got, values)
        assert server.stats.get("serve.cache.hits") > 0

    def test_insert_invalidates_stale_values(self, server, client):
        keys = unique_keys(128, seed=12)
        values = random_values(128, seed=13)
        client.insert(keys, values)
        client.query(keys)  # warm the tier
        client.query(keys)
        client.insert(keys, values + 1)  # overwrite through the server
        got, found = client.query(keys)
        assert found.all()
        assert np.array_equal(got, values + 1), "served stale cached values"

    def test_erase_invalidates_cached_keys(self, server, client):
        keys = unique_keys(128, seed=14)
        values = random_values(128, seed=15)
        client.insert(keys, values)
        client.query(keys)
        client.query(keys)
        client.erase(keys)
        got, found = client.query(keys, default=7)
        assert not found.any()
        assert (got == 7).all()

    def test_cache_off_server_reports_no_tier(self):
        srv = KVServer.create(num_gpus=2, capacity=1 << 12, cache=False).start()
        try:
            with KVClient(srv.address, name="nocache") as c:
                assert c.server_cache_enabled is False
                keys = unique_keys(64, seed=16)
                c.insert(keys, keys)
                c.query(keys)
                c.query(keys)
            assert srv.stats.get("serve.cache.hits") == 0
            assert "cache" not in srv.snapshot()
        finally:
            srv.close()


class TestAccountingSurfaces:
    def test_counters_and_snapshot(self, server, client):
        keys = unique_keys(256, seed=17)
        client.insert(keys, keys)
        client.query(keys)
        client.erase(keys[:10])
        counters = server.stats.snapshot()
        assert counters["serve.connections"] >= 1
        assert counters["serve.ops.insert"] == 256
        assert counters["serve.ops.query"] == 256
        assert counters["serve.ops.erase"] == 10
        assert counters["serve.batches"] >= 3
        assert counters["serve.client.it-client.ops"] == 522
        snap = server.snapshot()
        assert snap["table"]["size"] == 246  # 256 inserted - 10 erased
        assert snap["admission"]["in_flight_bytes"] == 0
        assert snap["cache"]["capacity"] == 512

    def test_stats_frame_matches_server_snapshot(self, server, client):
        keys = unique_keys(64, seed=18)
        client.insert(keys, keys)
        # counters settle before the reply goes out: no polling needed
        over_the_wire = client.stats()
        assert over_the_wire["table"]["size"] == len(server.table)
        assert over_the_wire["counters"]["serve.ops.insert"] == 64

    def test_reconnect_under_same_name_is_counted(self, server):
        with KVClient(server.address, name="bouncer") as c:
            c.query(unique_keys(8, seed=19))
        with KVClient(server.address, name="bouncer"):
            pass
        assert server.stats.get("serve.reconnect") == 1

    def test_report_carries_cache_split(self, server):
        """The coalescer stamps CascadeReport with the batch's
        hit/miss split — visible through the table's own report path."""
        cache = server.cache
        assert isinstance(cache, HotKeyCache)
        keys = unique_keys(128, seed=20)
        with KVClient(server.address, name="split") as c:
            c.insert(keys, keys)
            c.query(keys)  # all misses, sketch warms
            c.query(keys)  # sampled keys cross promote_after and admit
            c.query(keys)  # resident keys hit
        stats = cache.stats()
        assert stats.misses >= 128
        assert stats.hits >= 1


class TestCoalescing:
    """A merged group closes once every live connection has a frame in
    it; ``batch_window`` only bounds the wait for silent connections."""

    def test_closed_loop_clients_do_not_wait_out_the_window(self):
        requests = 20
        with KVServer.create(
            num_gpus=4, capacity=1 << 13, batch_window=1.0
        ) as srv:
            errors: list[BaseException] = []

            def drive(c: int) -> None:
                try:
                    with KVClient(srv.address, name=f"loop-{c}") as kv:
                        for j in range(requests):
                            keys = unique_keys(256, seed=1000 * c + j)
                            kv.query(keys)
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=drive, args=(c,)) for c in range(2)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            elapsed = time.perf_counter() - start
            assert not errors, errors
            batches = srv.stats.get("serve.batches")
            merged = srv.stats.get("serve.coalesced_requests")
        # waiting out the window on every batch would take >= 20 s
        assert elapsed < 5.0, elapsed
        assert merged == 2 * requests
        assert merged / batches > 1

    def test_idle_connection_keeps_the_window_open(self):
        """Frames pipelined on one connection still merge into one
        batch while a second, silent connection holds the window."""
        srv = KVServer.create(
            num_gpus=4, capacity=1 << 13, batch_window=0.25
        ).start()
        try:
            with KVClient(srv.address, name="idle"), socket.socket(
                socket.AF_UNIX, socket.SOCK_STREAM
            ) as sock:
                sock.settimeout(5.0)
                sock.connect(srv.address)
                frames = [
                    Frame(
                        FrameType.QUERY,
                        rid,
                        encode_query(unique_keys(64, seed=rid)),
                    )
                    for rid in range(1, 5)
                ]
                for frame in frames:
                    write_frame(sock, frame)
                replies = {read_frame(sock).request_id for _ in frames}
            assert replies == {1, 2, 3, 4}
            assert srv.stats.get("serve.batches") == 1
            assert srv.stats.get("serve.coalesced_requests") == 4
        finally:
            srv.close()


class TestLifecycle:
    def test_shutdown_frame_closes_server(self, server):
        client = KVClient(server.address, name="closer")
        client.shutdown_server()
        assert server.wait(timeout=5.0)

    def test_context_manager_cycle(self):
        with KVServer.create(num_gpus=2, capacity=1 << 12) as srv:
            with KVClient(srv.address) as c:
                keys = unique_keys(16, seed=21)
                assert c.insert(keys, keys) == 16

    def test_double_start_rejected(self, server):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            server.start()
