"""Client side of the admission service.

Worker processes speculate locally (each owns its concrete structure
and scheduler) while every admission decision crosses the wire:
:class:`RemoteConflictManager` duck-types the in-process
:class:`~repro.runtime.gatekeeper.ConflictManager` surface the serial
executor uses — ``shards_for`` / ``check_many`` / ``record`` /
``release`` plus ``counters()`` — over one blocking TCP connection.

Frames carry operations, never states: the server keeps the domain's
abstract state by the spec from the one ``state`` frame each run
sends, ahead of its first check or record (see :mod:`.protocol`).

Round-trips are amortized by pipelining: ``state``, ``record`` and
``release`` frames are buffered client-side and flushed inside the
*next* ``check`` as one ``batch`` frame (order preserved, so the server
applies exactly the sequence an in-process manager would have seen —
decision identity is free).  A transaction's final release rides with
the next transaction's first check; anything still buffered flushes on
stats collection or close.

:class:`ServiceBackend` plugs this into
``SpeculativeExecutor(backend=...)`` — serial per process
(``supports_threads`` is False); cross-process parallelism comes from
running more client processes, which is the point of the service.

The backend is *pooled*: it keeps one persistent connection per
cluster worker (the partition map comes from ``hello``) and a keyed
domain cache, so repeated executions of the same (structure, policy,
shards, arming) reuse the server-side domain through a ``reset`` frame
— the compiled stable conditions stay warm instead of being re-armed
per run.  :meth:`ServiceBackend.bump_epoch` invalidates the cache
explicitly (the cached domains are closed server-side).
"""

from __future__ import annotations

import socket
import time
from typing import Any

from ..eval.values import Record
from ..runtime.backend import AdmissionBackend
from ..runtime.gatekeeper import LoggedOperation
from . import protocol


class ServiceError(RuntimeError):
    """The server answered a frame with ``ok: false``."""


#: Ceiling on one exponential-backoff sleep between connect attempts.
MAX_BACKOFF_SECONDS = 2.0


class ServiceClient:
    """A blocking frame-RPC connection to one admission server.

    Connecting retries with bounded exponential backoff (a server
    subprocess that is still binding its port looks exactly like a
    refused connection); after the handshake every call is covered by
    ``call_timeout`` so a hung server surfaces as ``socket.timeout``
    instead of a silent stall."""

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 call_timeout: float = 60.0,
                 connect_retries: int = 5,
                 backoff: float = 0.05) -> None:
        self.host = host
        self.port = port
        self._sock = self._connect(host, port, timeout,
                                   connect_retries, backoff)
        self._sock.settimeout(call_timeout)
        self._recv = self._sock.makefile("rb")
        hello = self.call(protocol.hello_frame())
        self.server_version = hello.get("v")
        #: The server's cluster map: worker count, this server's worker
        #: id, and every worker's port (single-process servers report a
        #: one-entry map).
        self.cluster = hello.get("cluster") or {
            "workers": 1, "worker_id": 0, "ports": [port]}

    @staticmethod
    def _connect(host: str, port: int, timeout: float, retries: int,
                 backoff: float) -> socket.socket:
        delay = backoff
        for attempt in range(retries + 1):
            try:
                return socket.create_connection((host, port),
                                                timeout=timeout)
            except OSError:
                if attempt == retries:
                    raise
                time.sleep(min(delay, MAX_BACKOFF_SECONDS))
                delay *= 2
        raise OSError("unreachable")  # pragma: no cover

    def _read_response(self) -> dict[str, Any]:
        prefix = self._recv.read(4)
        if len(prefix) != 4:
            raise ConnectionError("server closed the connection")
        length = protocol.unpack_length(prefix)
        body = self._recv.read(length)
        if len(body) != length:
            raise ConnectionError("truncated response frame")
        return protocol.decode_body(body)

    @staticmethod
    def _checked(response: dict[str, Any]) -> dict[str, Any]:
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown error"))
        return response

    def call(self, frame: dict[str, Any]) -> dict[str, Any]:
        """One frame, one response; raises on ``ok: false``."""
        self._sock.sendall(protocol.pack_frame(frame))
        return self._checked(self._read_response())

    def call_batch(self, frames: list[dict[str, Any]]) \
            -> list[dict[str, Any]]:
        """A batch of frames in one round-trip; raises if the batch or
        any sub-frame failed."""
        response = self.call(protocol.batch_frame(frames))
        return [self._checked(result)
                for result in response["results"]]

    def close(self) -> None:
        try:
            self._recv.close()
        finally:
            self._sock.close()


class RemoteConflictManager:
    """The executor-facing manager surface, served over the wire.

    Serial use only (one in-flight RPC per connection); the executor
    enforces this through ``ServiceBackend.supports_threads``.
    """

    def __init__(self, client: ServiceClient, domain: int,
                 shards: int, owns_client: bool = True,
                 pooled: bool = False) -> None:
        self._client = client
        self._domain = domain
        self._owns_client = owns_client
        #: Pooled managers belong to a backend's domain cache: close()
        #: flushes and snapshots final stats but leaves the domain open
        #: (the next execution resets it) and the connection up.
        self._pooled = pooled
        self.num_shards = shards
        #: state/record/release frames awaiting the next check's batch.
        self._pending: list[dict[str, Any]] = []
        #: Whether this run's ``state`` frame is on its way.
        self._state_sent = False
        #: Stats memo; invalidated by every new frame, final after close.
        self._stats: dict[str, Any] | None = None
        self._closed = False
        #: Wall seconds of each admission round-trip (one per
        #: ``check_many``), surfaced on the report as the client half
        #: of the service latency story.
        self.admission_latencies: list[float] = []

    # -- the admission hot path ----------------------------------------------

    def shards_for(self, op_name: str,
                   args: tuple[Any, ...]) -> tuple[int, ...]:
        """Routing is the server's business: the empty lock set tells
        the (serial) executor there is nothing to lock locally, and the
        server recomputes the authoritative scan set per check."""
        return ()

    def _send_state(self, state: Record) -> None:
        """Ship the first state this manager is handed, the run's
        initial state, at the head of the pending frames."""
        if not self._state_sent:
            self._state_sent = True
            self._pending.insert(0, protocol.state_frame(self._domain,
                                                         state))

    def check_many(self, txn_id: int, op_name: str,
                   args: tuple[Any, ...], current: Record,
                   shard_ids=None) -> tuple[bool, int | None]:
        self._send_state(current)
        frames = self._pending
        self._pending = []
        frames.append(protocol.check_frame(self._domain, txn_id,
                                           op_name, args))
        self._stats = None
        started = time.perf_counter()
        results = self._client.call_batch(frames)
        self.admission_latencies.append(time.perf_counter() - started)
        verdict = results[-1]
        return bool(verdict["admitted"]), verdict["holder"]

    def record(self, entry: LoggedOperation) -> tuple[int, ...]:
        self._send_state(entry.before)
        self._pending.append(protocol.record_frame(
            self._domain, entry.txn_id, entry.op_name, entry.args,
            entry.result))
        self._stats = None
        return ()

    def release(self, txn_id: int, reason: str = "commit") -> None:
        self._pending.append(protocol.release_frame(self._domain,
                                                    txn_id, reason))
        self._stats = None

    def touched(self, txn_id: int) -> tuple[int, ...]:
        return ()

    # -- stats surface (mirrors ConflictManager's counters) ------------------

    def _flush(self) -> None:
        if self._pending:
            frames, self._pending = self._pending, []
            self._client.call_batch(frames)

    def stats(self) -> dict[str, Any]:
        """The domain's live stats payload (flushes the pipeline so
        buffered releases are counted)."""
        if self._stats is None:
            self._flush()
            response = self._client.call(
                protocol.stats_frame(self._domain))
            self._stats = response["stats"]
        return self._stats

    def counters(self) -> dict[str, int]:
        return dict(self.stats()["counters"])

    def eval_error_samples(self) -> list[dict[str, Any]]:
        return list(self.stats()["eval_error_sample"])

    def shard_stats(self) -> list[dict[str, int]]:
        return [dict(stats) for stats in self.stats()["shard_stats"]]

    def close(self) -> None:
        """Flush the pipeline and snapshot final stats.  Owned
        connections retire the server-side domain and drop the socket;
        pooled ones leave both alive for the backend's domain cache to
        reuse."""
        if self._closed:
            return
        self._closed = True
        if self._pooled:
            self._flush()
            response = self._client.call(
                protocol.stats_frame(self._domain))
            self._stats = response["stats"]
            return
        try:
            self._flush()
            response = self._client.call(
                protocol.close_frame(self._domain))
            self._stats = response["stats"]
        finally:
            if self._owns_client:
                self._client.close()


class ServiceBackend(AdmissionBackend):
    """Admission decisions from a remote server or cluster.

    Connections are pooled (one per cluster worker, learned from the
    ``hello`` partition map) and server-side domains are cached by
    (structure, policy, shards, stable): a repeated execution sends a
    ``reset`` frame instead of re-opening, so the server's armed
    stable conditions and compiled checks stay warm.
    ``bump_epoch()`` invalidates the cache.  Serial per process, like
    the managers it hands out."""

    kind = "service"
    supports_threads = False

    def __init__(self, host: str, port: int, *, label: str = "",
                 timeout: float = 30.0, call_timeout: float = 60.0,
                 connect_retries: int = 5, registry=None) -> None:
        self.host = host
        self.port = port
        self.label = label
        self.timeout = timeout
        self.call_timeout = call_timeout
        self.connect_retries = connect_retries
        self.registry = registry
        self._clients: list[ServiceClient] | None = None
        self._epoch = 0
        #: (epoch, structure, policy, shards, stable) -> one open
        #: domain id per pooled connection.
        self._domains: dict[tuple, list[int]] = {}
        #: Executions served by resetting a cached domain instead of
        #: opening one (mirrors the server's ``domain_reuse_total``).
        self.domain_reuses = 0

    def _dial(self, port: int) -> ServiceClient:
        return ServiceClient(self.host, port, timeout=self.timeout,
                             call_timeout=self.call_timeout,
                             connect_retries=self.connect_retries)

    def _pool(self) -> list[ServiceClient]:
        """The pooled connections, one per cluster worker in worker-id
        order (a single-process server pools one)."""
        if self._clients is None:
            first = self._dial(self.port)
            try:
                cluster = first.cluster
                ports = list(cluster.get("ports") or [self.port])
                clients: list[ServiceClient | None] = [None] * len(ports)
                clients[int(cluster.get("worker_id", 0))] = first
                for i, port in enumerate(ports):
                    if clients[i] is None:
                        clients[i] = self._dial(port)
            except BaseException:
                first.close()
                raise
            self._clients = clients
        return self._clients

    def conflict_manager(self, ds_name: str, *,
                         policy: str = "commutativity", shards: int = 1,
                         stable: bool = False):
        clients = self._pool()
        key = (self._epoch, ds_name, policy, shards, stable)
        domains = self._domains.get(key)
        if domains is not None:
            try:
                for client, domain in zip(clients, domains):
                    client.call(protocol.reset_frame(domain))
                self.domain_reuses += 1
            except ServiceError:
                # The server evicted a retained domain; fall back to a
                # fresh open under the same key.
                del self._domains[key]
                domains = None
        if domains is None:
            domains = [client.call(protocol.open_frame(
                ds_name, policy=policy, shards=shards, stable=stable,
                label=self.label))["domain"]
                for client in clients]
            self._domains[key] = domains
        if len(clients) == 1:
            return RemoteConflictManager(clients[0], domains[0], shards,
                                         owns_client=False, pooled=True)
        from .cluster import PartitionedConflictManager
        return PartitionedConflictManager(clients, domains, ds_name,
                                          policy=policy, shards=shards,
                                          registry=self.registry)

    def bump_epoch(self) -> None:
        """Explicit domain-cache invalidation: close every cached
        domain server-side and start a fresh cache generation (the
        next execution re-opens and re-arms)."""
        self._epoch += 1
        if self._clients is not None:
            for domains in self._domains.values():
                for client, domain in zip(self._clients, domains):
                    try:
                        client.call(protocol.close_frame(domain))
                    except (ServiceError, OSError):
                        pass
        self._domains.clear()

    def close(self) -> None:
        """Close cached domains and drop the pooled connections."""
        self.bump_epoch()
        clients, self._clients = self._clients, None
        for client in clients or ():
            try:
                client.close()
            except OSError:
                pass
