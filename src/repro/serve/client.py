"""KV client for the serving layer.

A :class:`KVClient` speaks the :mod:`repro.serve.protocol` framing over
a unix or TCP socket.  Each request goes out as one frame per
``MAX_BATCH`` keys, in caller order; the server's coalescer merges
frames from many clients into one cascade, and the table's own
multisplit routes every key to its shard.

Replies are matched by ``request_id``, *not* arrival order: the server
rejects over-budget frames immediately from the reader thread while
accepted frames answer later from the coalescer, so replies can
legitimately overtake each other on one connection.  A typed ERROR
frame surfaces as :class:`~repro.serve.protocol.ServeError` carrying
the server's :class:`~repro.serve.protocol.ErrorCode`; ``OVERLOADED``
can optionally be retried with exponential backoff
(``retry_overloaded``).
"""

from __future__ import annotations

import itertools
import json
import socket
import time

import numpy as np

from ..errors import ConfigurationError
from ..utils.validation import check_keys, check_same_length, check_values
from .protocol import (
    ErrorCode,
    Frame,
    FrameType,
    MAX_BATCH,
    ProtocolError,
    ServeError,
    decode_erase_reply,
    decode_error,
    decode_hello_reply,
    decode_insert_reply,
    decode_query_reply,
    encode_erase,
    encode_hello,
    encode_insert,
    encode_query,
    read_frame,
    write_frame,
)

__all__ = ["KVClient"]

_client_counter = itertools.count()


class KVClient:
    """One connection to a :class:`~repro.serve.server.KVServer`.

    Parameters
    ----------
    address:
        Unix socket path (``str``) or ``(host, port)`` tuple.
    name:
        Client identity sent in HELLO; re-HELLOs under the same name
        count as ``serve.reconnect`` on the server.  Auto-generated
        when omitted.
    retry_overloaded:
        How many times to retry a frame the server rejected with
        ``OVERLOADED``, with exponential backoff starting at
        ``backoff``.  ``0`` (default) surfaces the rejection as
        :class:`ServeError` — what the fault-injection tests assert.
    timeout:
        Socket timeout in seconds for connect and replies.
    """

    def __init__(
        self,
        address,
        *,
        name: str | None = None,
        retry_overloaded: int = 0,
        backoff: float = 0.005,
        timeout: float = 30.0,
    ):
        if retry_overloaded < 0:
            raise ConfigurationError(
                f"retry_overloaded must be >= 0, got {retry_overloaded}"
            )
        self.address = address
        self.name = (
            name
            if name is not None
            else f"client-{next(_client_counter)}"
        )
        self.retry_overloaded = int(retry_overloaded)
        self.backoff = float(backoff)
        self.timeout = float(timeout)
        self._sock: socket.socket | None = None
        self._request_ids = itertools.count(1)
        self.num_gpus = 0
        self.server_cache_enabled = False
        self.connects = 0
        self._connect()

    # -- connection -----------------------------------------------------------

    def _connect(self) -> None:
        if isinstance(self.address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(
            self.address
            if isinstance(self.address, str)
            else tuple(self.address)
        )
        self._sock = sock
        self.connects += 1
        reply = self._roundtrip_one(
            Frame(
                FrameType.HELLO,
                next(self._request_ids),
                encode_hello(self.name),
            )
        )
        if reply.type != FrameType.HELLO_REPLY:
            raise ProtocolError(
                f"expected HELLO_REPLY, got {reply.type.name}"
            )
        self.num_gpus, self.server_cache_enabled = decode_hello_reply(
            reply.payload
        )

    def reconnect(self) -> None:
        """Tear down the socket and re-HELLO (the fault-recovery path)."""
        self.close()
        self._connect()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass
            self._sock = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- framing --------------------------------------------------------------

    def _require_sock(self) -> socket.socket:
        if self._sock is None:
            raise ConfigurationError(
                "client is closed; call reconnect() first"
            )
        return self._sock

    def _roundtrip_one(self, frame: Frame) -> Frame:
        sock = self._require_sock()
        write_frame(sock, frame)
        while True:
            reply = read_frame(sock)
            if reply.request_id == frame.request_id:
                return reply
            # a stale reply from an earlier (abandoned) request — skip

    def _roundtrip_batch(
        self, frames: list[Frame], reply_type: FrameType
    ) -> dict[int, Frame]:
        """Send every frame, then collect all replies by request id.

        ``OVERLOADED`` errors are retried (same request id, fresh
        frame) up to ``retry_overloaded`` times; every other ERROR
        raises :class:`ServeError` immediately.
        """
        sock = self._require_sock()
        outstanding: dict[int, Frame] = {}
        for frame in frames:
            write_frame(sock, frame)
            outstanding[frame.request_id] = frame
        retries: dict[int, int] = {}
        replies: dict[int, Frame] = {}
        while outstanding:
            reply = read_frame(sock)
            sent = outstanding.pop(reply.request_id, None)
            if sent is None:
                continue  # stale reply from a prior call
            if reply.type == FrameType.ERROR:
                code, message = decode_error(reply.payload)
                attempt = retries.get(reply.request_id, 0)
                if (
                    code == ErrorCode.OVERLOADED
                    and attempt < self.retry_overloaded
                ):
                    retries[reply.request_id] = attempt + 1
                    time.sleep(self.backoff * (2 ** attempt))
                    write_frame(sock, sent)
                    outstanding[sent.request_id] = sent
                    continue
                raise ServeError(code, message)
            if reply.type != reply_type:
                raise ProtocolError(
                    f"expected {reply_type.name}, got {reply.type.name}"
                )
            replies[reply.request_id] = reply
        return replies

    # -- batch splitting ------------------------------------------------------

    def _split(self, keys: np.ndarray) -> list[slice]:
        """Slices, one per wire frame of at most ``MAX_BATCH`` keys,
        covering ``keys`` in caller order."""
        n = int(keys.shape[0])
        return [
            slice(start, start + MAX_BATCH)
            for start in range(0, max(n, 1), MAX_BATCH)
        ]

    # -- operations -----------------------------------------------------------

    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Batched insert; returns the number of pairs acknowledged."""
        k = check_keys(keys)
        v = check_values(values)
        check_same_length("keys", k, "values", v)
        frames = [
            Frame(
                FrameType.INSERT,
                next(self._request_ids),
                encode_insert(k[idx], v[idx]),
            )
            for idx in self._split(k)
        ]
        replies = self._roundtrip_batch(frames, FrameType.INSERT_REPLY)
        return sum(
            decode_insert_reply(reply.payload) for reply in replies.values()
        )

    def query(
        self, keys: np.ndarray, *, default: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched retrieval; returns ``(values, found)`` in input order."""
        k = check_keys(keys)
        splits = self._split(k)
        frames = [
            Frame(
                FrameType.QUERY,
                next(self._request_ids),
                encode_query(k[idx], default=default),
            )
            for idx in splits
        ]
        replies = self._roundtrip_batch(frames, FrameType.QUERY_REPLY)
        values = np.full(k.shape[0], default, dtype=np.uint32)
        found = np.zeros(k.shape[0], dtype=bool)
        for frame, idx in zip(frames, splits):
            part_values, part_found = decode_query_reply(
                replies[frame.request_id].payload
            )
            values[idx] = part_values
            found[idx] = part_found
        return values, found

    def erase(self, keys: np.ndarray) -> np.ndarray:
        """Batched deletion; returns the erased mask in input order."""
        k = check_keys(keys)
        splits = self._split(k)
        frames = [
            Frame(
                FrameType.ERASE,
                next(self._request_ids),
                encode_erase(k[idx]),
            )
            for idx in splits
        ]
        replies = self._roundtrip_batch(frames, FrameType.ERASE_REPLY)
        erased = np.zeros(k.shape[0], dtype=bool)
        for frame, idx in zip(frames, splits):
            erased[idx] = decode_erase_reply(
                replies[frame.request_id].payload
            )
        return erased

    def stats(self) -> dict:
        """The server's live counter/cache/table snapshot."""
        reply = self._roundtrip_one(
            Frame(FrameType.STATS, next(self._request_ids))
        )
        if reply.type != FrameType.STATS_REPLY:
            raise ProtocolError(
                f"expected STATS_REPLY, got {reply.type.name}"
            )
        return json.loads(reply.payload.decode("utf-8"))

    def shutdown_server(self) -> None:
        """Ask the server to drain and exit (used by the CLI pair)."""
        sock = self._require_sock()
        write_frame(
            sock, Frame(FrameType.SHUTDOWN, next(self._request_ids))
        )
        try:
            read_frame(sock)  # ack, best-effort
        except (ProtocolError, OSError):
            pass
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self.connected else "closed"
        return f"KVClient(name={self.name!r}, {state})"
