"""The KV server: request coalescing, admission control, cache tier.

One :class:`KVServer` fronts one
:class:`~repro.multigpu.distributed_table.DistributedHashTable`:

* an **acceptor** thread takes socket connections (unix or TCP);
* a **reader** thread per connection validates frames and performs
  *admission*: each data frame's payload bytes are charged against a
  :class:`~repro.pipeline.staging.StagingBudget` (the same primitive
  that bounds the streaming pipeline) — when the budget is saturated
  the frame is rejected with a typed ``OVERLOADED`` error instead of
  queueing unboundedly, and ``serve.rejected`` counts it;
* a single **coalescer** thread drains admitted requests and merges
  runs of same-op frames — across clients — into one cascade.  A group
  closes as soon as every live connection has a frame in it (a
  closed-loop client sends nothing more until it is answered), else
  when the batch window (seconds) runs out or the max-batch key count
  is reached.  All table access happens on this thread, so the
  executed-batch sequence is a total order: the op log it appends to
  replays serially to a bit-identical table (the soak-test contract).

Retrieval batches consult the :class:`~repro.serve.cache.HotKeyCache`
**on the coalescer thread**, once per merged batch: a single vectorized
lookup over the whole coalesced key set, then one cascade covering only
the missed keys.  Keeping lookups off the reader threads matters twice
over — the merged lookup runs uncontended (per-request lookups on N
reader threads fight each other for the interpreter), and every cache
operation (lookup, admission, invalidation) now happens in the same
total order as the cascades, so coherence is sequential by
construction.  The cascade's
:class:`~repro.multigpu.distributed_table.CascadeReport` records the
batch's ``cache_hits``/``cache_misses`` split.  Each key in a batched
query linearizes individually at its read point inside the batch —
batched gets are N independent reads, not a snapshot.  Inserts and
erases invalidate the touched keys *before* their replies are sent, so
no client can observe a stale cached value after any acknowledged
mutation.  Counters and the admission budget settle before the replies
go out too, so a client holding its answer reads current stats.

A malformed *header* desynchronizes the byte stream, so the server
answers with a typed error frame and closes that connection; a
malformed *payload* inside a well-framed message is answered and the
connection survives.  Neither path reaches the table.
"""

from __future__ import annotations

import json
import queue
import socket
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, ReproError
from ..multigpu.distributed_table import DistributedHashTable
from ..multigpu.topology import p100_nvlink_node
from ..obs import runtime as obs
from ..pipeline.staging import StagingBudget
from .cache import HotKeyCache
from .protocol import (
    ErrorCode,
    Frame,
    FrameType,
    ProtocolError,
    decode_erase,
    decode_hello,
    decode_insert,
    decode_query,
    encode_erase_reply,
    encode_error,
    encode_hello_reply,
    encode_insert_reply,
    encode_query_reply,
    read_frame,
    write_frame,
)

__all__ = ["ServerStats", "KVServer"]

#: ops that carry data through the admission queue
_DATA_OPS = {FrameType.INSERT: "insert", FrameType.QUERY: "query",
             FrameType.ERASE: "erase"}
_REPLY_TYPES = {"insert": FrameType.INSERT_REPLY,
                "query": FrameType.QUERY_REPLY,
                "erase": FrameType.ERASE_REPLY}


class ServerStats:
    """Thread-safe ``serve.*`` counters, mirrored into :mod:`repro.obs`.

    The server keeps its own registry so its counters exist whether or
    not the process-global obs switch is on; when it *is* on, every
    increment is teed into the active
    :class:`~repro.obs.metrics.MetricsRegistry` under the same names.
    """

    def __init__(self):
        self._counters: dict[str, float] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
        if obs.enabled():
            metrics = obs.get_metrics()
            if metrics is not None:
                metrics.inc(name, value)

    def get(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(sorted(self._counters.items()))


class _Conn:
    """One accepted connection: socket + send lock + client identity."""

    def __init__(self, sock: socket.socket, conn_id: int):
        self.sock = sock
        self.conn_id = conn_id
        self.name = f"conn{conn_id}"
        self.send_lock = threading.Lock()
        self.alive = True

    def send(self, frame: Frame) -> bool:
        """Best-effort framed send; a dead peer is not an error."""
        try:
            with self.send_lock:
                write_frame(self.sock, frame)
            return True
        except OSError:
            self.alive = False
            return False


@dataclass
class _Pending:
    """One admitted data frame waiting for the coalescer."""

    conn: _Conn
    op: str
    request_id: int
    keys: np.ndarray
    values: np.ndarray | None
    default: int
    nbytes: int
    enqueued_at: float = field(default_factory=time.perf_counter)


def _reply(pending: _Pending, values, found, part: slice) -> Frame:
    """The reply frame for one request: its ``part`` of the batch result."""
    if pending.op == "insert":
        payload = encode_insert_reply(int(pending.keys.size))
    elif pending.op == "query":
        payload = encode_query_reply(values[part], found[part])
    else:
        payload = encode_erase_reply(found[part])
    return Frame(_REPLY_TYPES[pending.op], pending.request_id, payload)


class KVServer:
    """Socket front-end over a distributed hash table.

    Parameters
    ----------
    table:
        The :class:`DistributedHashTable` to serve.  The server owns all
        access to it (single coalescer thread); pass ``own_table=True``
        to have :meth:`close` free it.
    address:
        ``None`` (default) binds a fresh unix socket under a temp
        directory; a ``str`` binds that unix path; an ``(host, port)``
        tuple binds TCP (port 0 picks a free port).
    cache:
        ``False`` disables the hot-key tier.
    cache_size, promote_after:
        Forwarded to :class:`HotKeyCache`.
    batch_window:
        Upper bound, in seconds, on how long the coalescer waits for
        same-op follow-up frames.  A group stops waiting as soon as
        every live connection has a frame in it, so the window only
        runs out when some connection stays silent.
    max_batch:
        Key ceiling per coalesced cascade (admission control's unit of
        work; also bounds a cascade's staging footprint).
    admission_bytes:
        The :class:`StagingBudget` ceiling for admitted-but-unexecuted
        request bytes.  Saturation rejects with ``OVERLOADED``; a frame
        larger than the whole budget is rejected with ``TOO_LARGE``.
    oplog:
        Record every executed mutation batch (op, keys, values) in
        execution order — the soak test's serial-replay source.
    """

    def __init__(
        self,
        table: DistributedHashTable,
        *,
        address=None,
        own_table: bool = False,
        cache: bool = True,
        cache_size: int = 4096,
        promote_after: int = 2,
        batch_window: float = 0.002,
        max_batch: int = 1 << 15,
        admission_bytes: int = 64 << 20,
        oplog: bool = False,
    ):
        if batch_window < 0:
            raise ConfigurationError(
                f"batch_window must be >= 0, got {batch_window}"
            )
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        self.table = table
        self._own_table = own_table
        self.cache: HotKeyCache | None = (
            HotKeyCache(cache_size, promote_after=promote_after)
            if cache
            else None
        )
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.budget = StagingBudget(admission_bytes)
        self.stats = ServerStats()
        self.oplog: list[tuple[str, np.ndarray, np.ndarray | None]] | None = (
            [] if oplog else None
        )
        self._address = address
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._listener: socket.socket | None = None
        self._queue: queue.Queue[_Pending] = queue.Queue()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._conns: dict[int, _Conn] = {}
        self._conn_lock = threading.Lock()
        self._next_conn = 0
        self._seen_clients: set[str] = set()
        self._started = False
        self._closed = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        *,
        num_gpus: int = 4,
        capacity: int = 1 << 16,
        engine="serial",
        kernels: str = "fast",
        **kwargs,
    ) -> "KVServer":
        """Build a server plus its own table (the CLI entry point)."""
        table = DistributedHashTable(
            capacity,
            topology=p100_nvlink_node(num_gpus),
            engine=engine,
            kernels=kernels,
        )
        return cls(table, own_table=True, **kwargs)

    def start(self) -> "KVServer":
        """Bind, listen, and spin up acceptor + coalescer threads."""
        if self._started:
            raise ConfigurationError("server already started")
        addr = self._address
        if addr is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            addr = str(
                Path(self._tmpdir.name) / f"kv-{uuid.uuid4().hex[:8]}.sock"
            )
        if isinstance(addr, str):
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(addr)
            self._address = addr
        else:
            host, port = addr
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, int(port)))
            self._address = self._listener.getsockname()
        self._listener.listen(64)
        # a blocked accept() does not wake when another thread closes the
        # listener fd, so poll with a timeout to notice the stop flag
        self._listener.settimeout(0.2)
        self._started = True
        self._closed.clear()
        for target, name in (
            (self._accept_loop, "serve-accept"),
            (self._coalesce_loop, "serve-coalesce"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    @property
    def address(self):
        """The bound address (unix path or ``(host, port)``)."""
        return self._address

    def close(self) -> None:
        """Drain, stop every thread, close sockets, free owned state."""
        if not self._started:
            return
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass
        with self._conn_lock:
            conns = list(self._conns.values())
        for conn in conns:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._drain_queue(ErrorCode.SHUTTING_DOWN, "server closed")
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        if self._own_table:
            self.table.free()
        self._started = False
        self._closed.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until :meth:`close` completes (the CLI's serve loop).

        A SHUTDOWN frame from any client also triggers close, so this
        is how ``repro serve`` parks its main thread.  Returns ``True``
        once closed, ``False`` on timeout.
        """
        return self._closed.wait(timeout)

    def __enter__(self) -> "KVServer":
        return self.start() if not self._started else self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accept + read --------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed by close()
            with self._conn_lock:
                conn = _Conn(sock, self._next_conn)
                self._conns[self._next_conn] = conn
                self._next_conn += 1
            self.stats.inc("serve.connections")
            thread = threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"serve-read-{conn.conn_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _read_loop(self, conn: _Conn) -> None:
        # runs until the peer hangs up or close() shuts the socket: while
        # draining (_stop set, sockets still open) data ops are answered
        # with typed SHUTTING_DOWN rejections rather than a silent hangup
        try:
            while True:
                try:
                    frame = read_frame(conn.sock)
                except ProtocolError as exc:
                    self._on_stream_error(conn, exc)
                    return
                except OSError:
                    self.stats.inc("serve.disconnect")
                    return
                if not self._dispatch(conn, frame):
                    return
        finally:
            with self._conn_lock:
                self._conns.pop(conn.conn_id, None)
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass

    def _on_stream_error(self, conn: _Conn, exc: ProtocolError) -> None:
        """A broken byte stream: typed error if the peer is still there."""
        message = str(exc)
        if message == "connection closed":
            self.stats.inc("serve.disconnect")
            return
        if "truncated frame" in message:
            # the peer died mid-frame — nobody is listening for an error
            self.stats.inc("serve.disconnect")
            self.stats.inc("serve.truncated")
            return
        # parseable garbage (bad magic/version/type/length): reject loudly,
        # then drop the connection — the stream offset is unrecoverable
        self.stats.inc("serve.rejected")
        self.stats.inc("serve.rejected.malformed")
        conn.send(Frame(FrameType.ERROR, 0, encode_error(exc.code, message)))

    def _dispatch(self, conn: _Conn, frame: Frame) -> bool:
        """Handle one well-framed message; ``False`` ends the reader."""
        if frame.type == FrameType.HELLO:
            try:
                name = decode_hello(frame.payload)
            except ProtocolError as exc:
                self._reject(conn, frame.request_id, exc.code, str(exc))
                return True
            if name in self._seen_clients:
                self.stats.inc("serve.reconnect")
            else:
                self._seen_clients.add(name)
            conn.name = name
            conn.send(
                Frame(
                    FrameType.HELLO_REPLY,
                    frame.request_id,
                    encode_hello_reply(
                        self.table.num_gpus,
                        cache_enabled=self.cache is not None,
                    ),
                )
            )
            return True
        if frame.type == FrameType.STATS:
            payload = json.dumps(self.snapshot()).encode("utf-8")
            conn.send(Frame(FrameType.STATS_REPLY, frame.request_id, payload))
            return True
        if frame.type == FrameType.SHUTDOWN:
            conn.send(Frame(FrameType.SHUTDOWN, frame.request_id))
            threading.Thread(target=self.close, daemon=True).start()
            return False
        op = _DATA_OPS.get(frame.type)
        if op is None:
            self._reject(
                conn,
                frame.request_id,
                ErrorCode.BAD_TYPE,
                f"server does not accept {frame.type.name} frames",
            )
            return True
        return self._admit(conn, op, frame)

    def _admit(self, conn: _Conn, op: str, frame: Frame) -> bool:
        try:
            if op == "insert":
                keys, values = decode_insert(frame.payload)
                default = 0
            elif op == "query":
                keys, default = decode_query(frame.payload)
                values = None
            else:
                keys = decode_erase(frame.payload)
                values, default = None, 0
        except ProtocolError as exc:
            # well-framed but unparseable payload: the stream is still in
            # sync, so answer and keep the connection
            self.stats.inc("serve.rejected")
            self.stats.inc("serve.rejected.malformed")
            self._reject(conn, frame.request_id, exc.code, str(exc))
            return True
        nbytes = len(frame.payload)
        pending = _Pending(
            conn, op, frame.request_id, keys, values, default, nbytes
        )
        if keys.size == 0:
            # empty batches short-circuit: legal, but no cascade to join
            empty = np.empty(0, dtype=np.uint32)
            conn.send(_reply(pending, empty, empty.astype(bool), slice(0)))
            return True
        if self._stop.is_set():
            self._reject(
                conn, frame.request_id, ErrorCode.SHUTTING_DOWN,
                "server is draining",
            )
            return True
        if nbytes > self.budget.total_bytes:
            # retrying cannot help: this frame never fits the budget
            self.stats.inc("serve.rejected")
            self.stats.inc("serve.rejected.too_large")
            self._reject(
                conn,
                frame.request_id,
                ErrorCode.TOO_LARGE,
                f"request of {nbytes} B can never fit the "
                f"{self.budget.total_bytes} B admission budget; "
                f"send smaller batches",
            )
            return True
        if not self.budget.try_acquire(nbytes):
            self.stats.inc("serve.rejected")
            self.stats.inc("serve.rejected.overloaded")
            self._reject(
                conn,
                frame.request_id,
                ErrorCode.OVERLOADED,
                f"admission budget full "
                f"({self.budget.in_flight_bytes} B in flight)",
            )
            return True
        self._queue.put(pending)
        return True

    def _reject(
        self, conn: _Conn, request_id: int, code: ErrorCode, message: str
    ) -> None:
        conn.send(
            Frame(FrameType.ERROR, request_id, encode_error(code, message))
        )

    # -- coalesce + execute ---------------------------------------------------

    def _coalesce_loop(self) -> None:
        holdover: _Pending | None = None
        while True:
            item = holdover
            holdover = None
            if item is None:
                try:
                    item = self._queue.get(timeout=0.05)
                except queue.Empty:
                    if self._stop.is_set():
                        return
                    continue
            group = [item]
            conns = {item.conn}
            total = int(item.keys.size)
            deadline = time.perf_counter() + self.batch_window
            while total < self.max_batch:
                if len(conns) >= len(self._conns):
                    # every live connection is in: nothing new can join,
                    # so take only what is already queued
                    timeout = 0.0
                else:
                    timeout = max(deadline - time.perf_counter(), 0.0)
                try:
                    nxt = self._queue.get(timeout=timeout)
                except queue.Empty:
                    break
                if (
                    nxt.op != item.op
                    or total + nxt.keys.size > self.max_batch
                ):
                    holdover = nxt
                    break
                group.append(nxt)
                conns.add(nxt.conn)
                total += int(nxt.keys.size)
            self._execute(group)

    def _execute(self, group: list[_Pending]) -> None:
        """Run one merged cascade, settle stats and budget, then reply."""
        op = group[0].op
        total = sum(int(p.keys.size) for p in group)
        clients = sorted({p.conn.name for p in group})
        try:
            with obs.span(
                "serve.batch",
                "serve",
                op=op,
                requests=len(group),
                num_ops=total,
                clients=len(clients),
            ):
                if op == "insert":
                    values, found = self._execute_insert(group)
                elif op == "query":
                    values, found = self._execute_query(group)
                else:
                    values, found = self._execute_erase(group)
                replies, offset = [], 0
                for pending in group:
                    part = slice(offset, offset + int(pending.keys.size))
                    replies.append(_reply(pending, values, found, part))
                    offset = part.stop
        except ReproError as exc:
            # typed reply per caller; the cascade entry points validate
            # before mutating, so the table stays consistent
            self.stats.inc("serve.errors")
            message = encode_error(
                ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
            replies = [
                Frame(FrameType.ERROR, pending.request_id, message)
                for pending in group
            ]
        else:
            self.stats.inc("serve.batches")
            self.stats.inc(f"serve.ops.{op}", total)
            self.stats.inc("serve.coalesced_requests", len(group))
            for pending in group:
                self.stats.inc(
                    f"serve.client.{pending.conn.name}.ops",
                    int(pending.keys.size),
                )
        finally:
            for pending in group:
                if pending.nbytes:
                    self.budget.release(pending.nbytes)
        for pending, reply in zip(group, replies):
            pending.conn.send(reply)

    def _execute_insert(self, group: list[_Pending]) -> tuple[None, None]:
        keys = np.concatenate([p.keys for p in group])
        values = np.concatenate([p.values for p in group])
        self.table.insert(keys, values, source="host")
        if self.cache is not None:
            self.cache.invalidate(keys)
        if self.oplog is not None:
            self.oplog.append(("insert", keys, values))
        return None, None

    def _execute_erase(self, group: list[_Pending]) -> tuple[None, np.ndarray]:
        keys = np.concatenate([p.keys for p in group])
        erased, _report = self.table.erase(keys, source="host")
        if self.cache is not None:
            self.cache.invalidate(keys)
        if self.oplog is not None:
            self.oplog.append(("erase", keys, None))
        return None, erased

    def _execute_query(
        self, group: list[_Pending]
    ) -> tuple[np.ndarray, np.ndarray]:
        keys = np.concatenate([p.keys for p in group])
        defaults = np.concatenate(
            [np.full(p.keys.size, p.default, dtype=np.uint32) for p in group]
        )
        if self.cache is not None:
            # one vectorized lookup over the whole coalesced batch, then
            # a cascade covering only the missed keys
            values, hit_mask = self.cache.lookup(keys)
            nhits = int(hit_mask.sum())
            self.stats.inc("serve.cache.hits", nhits)
            self.stats.inc("serve.cache.misses", int(keys.size) - nhits)
            if nhits == keys.size:
                found = hit_mask
            else:
                miss = ~hit_mask
                miss_keys = keys[miss]
                miss_values, miss_found = self._query_table(
                    miss_keys, defaults[miss], cache_hits=nhits
                )
                if miss_found.any():
                    self.cache.admit(
                        miss_keys[miss_found], miss_values[miss_found]
                    )
                values[miss] = miss_values
                found = hit_mask
                found[miss] = miss_found
            return values, found
        return self._query_table(keys, defaults)

    def _query_table(
        self,
        keys: np.ndarray,
        defaults: np.ndarray,
        *,
        cache_hits: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One retrieval cascade, stamped with the batch's cache split."""
        values, found, report = self.table.query(keys, source="host")
        report.cache_hits = cache_hits
        report.cache_misses = int(keys.size)
        miss = ~found
        if miss.any():
            values = values.copy()
            values[miss] = defaults[miss]
        return values, found

    def _drain_queue(self, code: ErrorCode, message: str) -> None:
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                return
            if pending.nbytes:
                self.budget.release(pending.nbytes)
            self._reject(pending.conn, pending.request_id, code, message)

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready stats: counters, cache tier, table occupancy."""
        data = {
            "counters": self.stats.snapshot(),
            "table": {
                "size": len(self.table),
                "capacity": self.table.total_capacity,
                "num_gpus": self.table.num_gpus,
            },
            "admission": {
                "budget_bytes": self.budget.total_bytes,
                "in_flight_bytes": self.budget.in_flight_bytes,
                "peak_bytes": self.budget.peak_bytes,
            },
        }
        if self.cache is not None:
            data["cache"] = self.cache.stats().to_dict()
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KVServer(address={self._address!r}, "
            f"cache={'on' if self.cache is not None else 'off'}, "
            f"table={self.table!r})"
        )
