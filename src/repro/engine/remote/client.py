"""``RemoteBackend``: the ``EngineBackend`` protocol over a TCP socket.

The client keeps an in-process :class:`~repro.engine.database.Database`
for cheap, deterministic work that never needs the wire — SQL parse/bind,
schema/statistics metadata, EXPLAIN — exactly like the sharded pool's
parent engine; planning and execution RPCs travel to a ``repro-engine``
server as pickled, length-prefixed, crc32-checksummed frames
(:mod:`repro.engine.wire`).

Concurrency follows the sharded pool's discipline: a small pool of
connections, each guarded by a lock held across one full send→recv round
trip, so concurrent tenants (e.g. a :class:`~repro.api.group.ServiceGroup`
sharing one ``RemoteBackend``) pipeline whole batches without interleaving
bytes on a socket.  ``*_many`` calls ship as single frames — one round
trip per batch, not per item.  The memo, the deadline split and the
metadata mirror are the shared client half,
:class:`~repro.engine.backend.MemoizingClient`; this module is only the
transport.

Failure surface, split by whether retrying can help: timeouts and dropped
connections get a bounded reconnect (requests are idempotent — the engine
is a pure function of the dataset — so a retry cannot double-apply
anything) and then a typed error — :class:`RemoteTimeoutError` when every
attempt timed out, :class:`RemoteEngineError` otherwise.  Connection
*refused* fails fast with no retries (nobody is listening; backing off
won't make a server appear), as does a fingerprint/handshake mismatch; a
checksum-invalid or desynchronized stream raises
:class:`~repro.engine.wire.FrameCorruptionError` immediately, because
corruption is a bug to surface, not a transient to paper over.

At connect time the client compares the server's dataset fingerprint
against its own mirror and refuses to serve across datagen drift — the
same crc32 fingerprint the session manifest records.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.engine.backend import MemoizingClient
from repro.engine.database import Database, dataset_fingerprint
from repro.engine.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameCorruptionError,
    FrameTooLargeError,
    contexts_to_wire,
    read_frame,
    write_frame,
)
from repro.executor.engine import ExecutionResult


class RemoteEngineError(RuntimeError):
    """A remote engine RPC failed (server error, dead/unreachable server,
    or a client/server dataset mismatch)."""


class RemoteTimeoutError(RemoteEngineError):
    """Every bounded reconnect attempt timed out waiting on the server.

    Transient by definition — the server exists but answered too slowly —
    so callers with retry budgets (hedging, failover fronts) may try
    again.  Distinct from plain :class:`RemoteEngineError`, which covers
    the non-transient cases (connection refused, handshake mismatch,
    server-side errors) where retrying cannot help.
    """


def parse_engine_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``; loud on anything else."""
    if not url.startswith("tcp://"):
        raise ValueError(
            f"engine_url must look like tcp://host:port, got {url!r}"
        )
    rest = url[len("tcp://") :]
    host, sep, port_text = rest.rpartition(":")
    if not sep or not host or not port_text:
        raise ValueError(
            f"engine_url must look like tcp://host:port, got {url!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"engine_url port must be an integer, got {url!r}"
        ) from None
    if not (0 < port < 65536):
        raise ValueError(f"engine_url port out of range in {url!r}")
    return host, port


class _Connection:
    """One pooled socket: lazy connect, framed round trips, drop on error."""

    def __init__(self, host: str, port: int, timeout_s: float, max_frame_bytes: int) -> None:
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._max_frame_bytes = max_frame_bytes
        self.lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._stream = None

    def ensure(self) -> bool:
        """Connect if needed; True when this call created a fresh socket."""
        if self._sock is not None:
            return False
        sock = socket.create_connection((self._host, self._port), timeout=self._timeout_s)
        try:
            sock.settimeout(self._timeout_s)
            # One small request frame per batch: don't let Nagle hold it back.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = sock.makefile("rwb")
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._stream = stream
        return True

    def round_trip(self, request: bytes) -> bytes:
        """Send one frame, read one frame; caller must hold ``lock``."""
        write_frame(self._stream, request, max_frame_bytes=self._max_frame_bytes)
        response = read_frame(self._stream, max_frame_bytes=self._max_frame_bytes)
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    def drop(self) -> None:
        stream, sock = self._stream, self._sock
        self._stream = None
        self._sock = None
        for closable in (stream, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:  # pragma: no cover - platform-dependent
                    pass


class RemoteBackend(MemoizingClient):
    """An ``EngineBackend`` served by a ``repro-engine`` TCP server.

    ``spec``/``database`` mirror the dataset client-side (at least one is
    required): ``database`` reuses an already-built engine (what
    :func:`~repro.engine.backend.make_backend` does with the workload's),
    ``spec`` rebuilds one.  The mirror serves metadata/SQL binding and
    anchors the connect-time fingerprint handshake against the server.
    """

    def __init__(
        self,
        url: str,
        *,
        spec=None,
        database: Optional[Database] = None,
        pool_size: int = 2,
        timeout_s: float = 120.0,
        max_reconnects: int = 2,
        reconnect_backoff_s: float = 0.05,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if database is None and spec is None:
            raise ValueError("RemoteBackend needs a spec or a prebuilt database")
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.url = url
        self._host, self._port = parse_engine_url(url)
        super().__init__(database if database is not None else spec.build_database())
        self.spec = spec
        self.timeout_s = timeout_s
        self.max_reconnects = max_reconnects
        self.reconnect_backoff_s = reconnect_backoff_s
        self.max_frame_bytes = max_frame_bytes
        self._pool = [
            _Connection(self._host, self._port, timeout_s, max_frame_bytes)
            for _ in range(pool_size)
        ]
        self._rr_lock = threading.Lock()
        self._rr = 0
        self._state_lock = threading.Lock()
        self._remote_executions = 0
        # Per-op RPC counter in the process-global registry (declared
        # before the handshake below, which is itself an RPC).
        self._m_calls = obs.get_registry().counter(
            "engine_remote_calls_total", "framed RPC round trips by op", ("kind",)
        )
        # Connect-time handshake: refuse to serve across datagen drift.
        hello = self._call("fingerprint", None)
        self.remote_fingerprint: str = hello["dataset_fingerprint"]
        self.server_info: Dict = hello
        # Version negotiation: contexts ride the wire only when the server
        # advertised protocol >= 2.  Against an older server the client
        # still enforces deadlines itself (expired items are dropped
        # client-side before the frame is built), so context-free requests
        # keep working in both directions.
        self.server_protocol: int = int(hello.get("protocol", 1))
        local_fingerprint = dataset_fingerprint(self.local.dataset)
        if self.remote_fingerprint != local_fingerprint:
            self.close()
            raise RemoteEngineError(
                f"dataset fingerprint mismatch against {url}: the server is "
                f"serving {self.remote_fingerprint} but this client's dataset "
                f"is {local_fingerprint}; client and server must build the "
                f"same workload (name/scale/seed) with the same datagen code"
            )

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def _acquire(self) -> _Connection:
        """A pooled connection with its lock held (free one, else round-robin)."""
        for conn in self._pool:
            if conn.lock.acquire(blocking=False):
                return conn
        with self._rr_lock:
            self._rr = (self._rr + 1) % len(self._pool)
            conn = self._pool[self._rr]
        conn.lock.acquire()
        return conn

    def _call(self, kind: str, payload, ctxs=None):
        """One framed RPC round trip with bounded reconnect.

        The connection lock is held across the full send→recv (the sharded
        pool's pipe discipline): a frame on the wire is never interleaved
        with another thread's.  Dropped connections reconnect up to
        ``max_reconnects`` times — safe because every engine RPC is
        idempotent — then raise :class:`RemoteEngineError`
        (:class:`RemoteTimeoutError` when every attempt timed out).
        Connection refused fails fast with no retries, and
        :class:`FrameCorruptionError` propagates immediately.

        ``ctxs`` (aligned with the items of a ``*_many`` payload) is
        encoded into a protocol-v2 3-tuple frame when the server supports
        it; a v1 server gets the plain 2-tuple and deadlines stay
        client-enforced.

        Tracing: when any context carries a ``trace_id``, a
        ``remote.call`` span wraps the round trip, the wire contexts are
        re-parented on it (so server-side spans nest correctly), and any
        spans the v2 server piggybacked on the reply (a 3-slot ``ok``
        body) are ingested into this process's tracer.  Untraced calls
        build the exact same frame bytes as before this feature existed.
        """
        self._check_open()
        self._m_calls.labels(kind=kind).inc()
        span = None
        send_ctxs = ctxs
        if (
            ctxs is not None
            and any(ctx is not None for ctx in ctxs)
            and getattr(self, "server_protocol", 1) >= 2
        ):
            opened = obs.span_for_ctxs(
                "remote.call", ctxs, attrs={"kind": kind, "url": self.url}
            )
            if opened.span_id is not None:
                span = opened
                send_ctxs = [
                    ctx.with_parent_span(span.span_id)
                    if ctx is not None
                    and getattr(ctx, "trace_id", None)
                    and hasattr(ctx, "with_parent_span")
                    else ctx
                    for ctx in ctxs
                ]
            wire_ctxs = contexts_to_wire(send_ctxs)
        else:
            wire_ctxs = None
        if wire_ctxs is not None:
            request = pickle.dumps(
                (kind, payload, wire_ctxs), protocol=pickle.HIGHEST_PROTOCOL
            )
        else:
            request = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
        if len(request) > self.max_frame_bytes:
            # Rejected before a connection is touched: nothing reached the
            # wire, so no healthy pooled socket should be dropped for it.
            raise FrameTooLargeError(
                f"request {kind!r} pickles to {len(request)} bytes "
                f"(max_frame_bytes={self.max_frame_bytes})"
            )
        conn = self._acquire()
        try:
            attempts = 0
            while True:
                try:
                    if conn.ensure():
                        # Every fresh socket re-runs the fingerprint
                        # handshake: a transparent reconnect is exactly the
                        # moment the peer may have been restarted with
                        # drifted datagen, and serving across that would
                        # silently break the determinism contract.
                        self._verify_connection(conn)
                    # pipe discipline: the connection lock spans one full
                    # framed send→recv so concurrent tenants never
                    # interleave bytes on a socket (class docstring).
                    response_bytes = conn.round_trip(request)  # repro-lint: allow[lock-blocking]
                    break
                except FrameCorruptionError:
                    # The stream cannot be trusted any more, but the error
                    # itself must surface — corruption is not a transient.
                    conn.drop()
                    raise
                except ConnectionRefusedError as exc:
                    # Nobody is listening at the address.  Backing off and
                    # retrying cannot make a server appear, so fail fast
                    # instead of burning the reconnect budget.
                    conn.drop()
                    raise RemoteEngineError(
                        f"engine RPC {kind!r} to {self.url}: connection "
                        f"refused — no server listening (not retrying): "
                        f"{exc!r}"
                    ) from exc
                except TimeoutError as exc:
                    # socket.timeout is TimeoutError; caught before the
                    # OSError clause below so exhausted retries surface as
                    # the retryable RemoteTimeoutError, not the generic
                    # (non-transient) RemoteEngineError.
                    conn.drop()
                    attempts += 1
                    if attempts > self.max_reconnects:
                        raise RemoteTimeoutError(
                            f"engine RPC {kind!r} to {self.url} timed out "
                            f"after {attempts} attempt(s) "
                            f"(timeout_s={self.timeout_s}): {exc!r}"
                        ) from exc
                    time.sleep(self.reconnect_backoff_s * attempts)
                except (ConnectionError, EOFError, OSError) as exc:
                    conn.drop()
                    attempts += 1
                    if attempts > self.max_reconnects:
                        raise RemoteEngineError(
                            f"engine RPC {kind!r} to {self.url} failed after "
                            f"{attempts} attempt(s): {exc!r}"
                        ) from exc
                    time.sleep(self.reconnect_backoff_s * attempts)
        finally:
            conn.lock.release()
        # A transport error above abandons the open span (never recorded —
        # the tracer holds no reference to open spans, so nothing leaks).
        status, body = pickle.loads(response_bytes)
        if status != "ok":
            if span is not None:
                span.end(status="error")
            raise RemoteEngineError(f"remote engine at {self.url}: {body}")
        result, executions = body[0], body[1]
        if len(body) > 2 and body[2]:
            # Protocol v2 with tracing: the server drained the spans it
            # produced for this request's traces into slot 3 of the reply.
            obs.get_tracer().ingest(body[2])
        if span is not None:
            span.end()
        with self._state_lock:
            # Monotonic merge: responses from different pooled connections
            # can land out of order.
            self._remote_executions = max(self._remote_executions, executions)
        return result

    def _verify_connection(self, conn: _Connection) -> None:
        """Fingerprint-check a fresh socket against the pinned handshake.

        No-op during ``__init__``'s first call (nothing pinned yet — that
        call *is* the handshake and does its own comparison).  Connection
        errors here propagate to the caller's reconnect loop; a mismatch
        is terminal.
        """
        expected = getattr(self, "remote_fingerprint", None)
        if expected is None:
            return
        hello = conn.round_trip(
            pickle.dumps(("fingerprint", None), protocol=pickle.HIGHEST_PROTOCOL)
        )
        status, body = pickle.loads(hello)
        if status != "ok":
            raise RemoteEngineError(f"remote engine at {self.url}: {body}")
        result, _executions = body
        actual = result["dataset_fingerprint"]
        if actual != expected:
            conn.drop()
            raise RemoteEngineError(
                f"dataset fingerprint drift at {self.url}: the server now "
                f"serves {actual} but this client is pinned to {expected} "
                f"(the server was restarted with different datagen); refusing "
                f"to serve plans from a different database"
            )

    # ------------------------------------------------------------------
    # transport hooks (see MemoizingClient)
    # ------------------------------------------------------------------
    # Defined on this class, not only inherited, so per-class method
    # wrappers (the layer tracing in perfbench/bench_trace.py) see them.
    plan_many = MemoizingClient.plan_many
    plan_with_hints_many = MemoizingClient.plan_with_hints_many

    @property
    def executions(self) -> int:
        """Real executions: the server's counter plus any local fallbacks."""
        with self._state_lock:
            remote = self._remote_executions
        return self.local.executions + remote

    def _fetch_plans(self, queries, options, keys, ctxs) -> List:
        return self._call("plan_many", (queries, options), ctxs=ctxs)

    def _fetch_hints(self, requests, keys, ctxs) -> List:
        return self._call("hint_many", requests, ctxs=ctxs)

    def _fetch_executions(self, requests, ctxs) -> List:
        return self._call("execute_many", requests, ctxs=ctxs)

    def _execute_uncached(self, query, plan, timeout_ms, ctx) -> ExecutionResult:
        # Uncached timing studies bypass the server's latency cache
        # (Database.execute skips the cache write for them too).
        return self._call(
            "execute",
            (query, plan, timeout_ms, False),
            ctxs=None if ctx is None else [ctx],
        )

    def clear_caches(self) -> None:
        super().clear_caches()
        self._call("clear_caches", None)

    def stats(self) -> Dict[str, float]:
        server = self._call("stats", None)
        return {
            "backend": "remote",
            "url": self.url,
            "connections": len(self._pool),
            "executions": self.executions,
            "plan_memo": len(self._plan_memo),
            "hint_memo": len(self._hint_memo),
            "server_backend": server.get("backend"),
            "server_workers": server.get("workers"),
            "server_executions": server.get("executions"),
        }

    def ping(self) -> bool:
        """One round trip against the live server (health check)."""
        self._call("ping", None)
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every pooled connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._pool:
            # Don't wait on in-flight round trips: dropping a socket the
            # server side is mid-write on is safe (the server tolerates
            # client disconnects), and close must never hang.
            conn.drop()
