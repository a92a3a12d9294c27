"""Client side of the admission service.

Worker processes speculate locally (each owns its concrete structure
and scheduler) while every admission decision crosses the wire.
:class:`ServiceClient` is one blocking TCP connection to one server.
:class:`ServiceBackend` plugs the service into
``SpeculativeExecutor(backend=...)``: it hands out one remote manager,
:class:`~repro.service.cluster.PartitionedConflictManager`, for a
single server (a one-worker cluster) and a cluster alike.  The manager
duck-types the in-process
:class:`~repro.runtime.gatekeeper.ConflictManager` surface the serial
executor uses — ``shards_for`` / ``check_many`` / ``record`` /
``release`` plus ``counters()``.  Frames carry operations, never
states, and are pipelined: see :mod:`.cluster` and :mod:`.protocol`.

The backend is serial per process (``supports_threads`` is False);
cross-process parallelism comes from running more client processes,
which is the point of the service.  It is *pooled*: it keeps one
persistent connection per cluster worker (the partition map comes from
``hello``) and a keyed domain cache, so repeated executions of the
same (structure, policy, shards, arming) reuse the server-side domain
through a ``reset`` frame — the compiled stable conditions stay warm
instead of being re-armed per run.  :meth:`ServiceBackend.bump_epoch`
invalidates the cache explicitly (the cached domains are closed
server-side).  A single server routes every operation itself, so its
client needs no registry; a cluster client routes with the family
routers of ``ServiceBackend(registry=...)``.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from ..runtime.backend import AdmissionBackend
from . import protocol
from .cluster import PartitionedConflictManager


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


class ServiceBackend(AdmissionBackend):
    """Admission decisions from a remote server or cluster.

    Connections are pooled (one per cluster worker, learned from the
    ``hello`` partition map) and server-side domains are cached by
    (structure, policy, shards, stable): a repeated execution sends a
    ``reset`` frame instead of re-opening, so the server's armed
    stable conditions and compiled checks stay warm.
    ``bump_epoch()`` invalidates the cache.  Serial per process, like
    the managers it hands out.  ``registry`` supplies the family
    routers a cluster client splits its frames by; a single server
    routes for itself and never reads it."""

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
        router = None
        if len(clients) > 1:
            from ..api import resolve_registry
            router = resolve_registry(self.registry).shard_router(ds_name)
        return PartitionedConflictManager(clients, domains, policy=policy,
                                          shards=shards, router=router)

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
