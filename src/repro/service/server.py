"""The asyncio admission server.

One process owns the conflict managers; any number of client
worker processes speculate against it over the frame protocol
(:mod:`.protocol`).  Each ``open`` frame creates an admission
*domain* — one :class:`~repro.runtime.gatekeeper.ConflictManager`
configured like the in-process path (structure, policy, shard count,
stable arming) — and belongs to the connection that opened it, so
concurrent clients never share a log.  The domain keeps its client's
abstract state by the spec (see :mod:`.protocol`): the client sends
the state once, then operations only, and a domain's state is written
by one connection whose frames are handled one at a time.  When a
connection ends, the server closes every domain it still holds and
counts each outstanding transaction as an abort.

Dispatch discipline: a domain takes frames only from the connection
that owns it, and that connection's frames are handled one at a time,
each to completion before the next is read.  The check, record,
release and reset handlers never await, so no other frame can reach a
domain while one of them runs, and they need no locks of their own;
the managers' thread locks are uncontended (one event loop).

The same port speaks plain HTTP for observability: a connection whose
first four bytes are ``GET `` (impossible as a frame length prefix,
see :data:`~repro.service.protocol.MAX_FRAME`) is answered as an HTTP
request — ``/metrics`` in Prometheus text format, ``/metrics.json``
as JSON — and closed.

Shutdown is a graceful drain: the listener closes first, every
accepted frame is answered before its connection winds down, and only
connections still idle after the grace period are cancelled.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any, Callable

from ..eval.interpreter import EvalError
from ..eval.values import Record
from ..reporting.tables import percentile
from ..runtime.gatekeeper import ConflictManager, LoggedOperation
from . import protocol
from .metrics import prometheus_text, snapshot_json

#: Closed domains retained for /metrics continuity (a scrape after a
#: bench run must still see the run's counters).
RETAINED_DOMAINS = 256

#: Upper bound on an HTTP request head; anything larger is dropped.
MAX_HTTP_HEAD = 16 * 1024


class _Domain:
    """One served admission domain: a conflict manager, the connection
    that owns it, the abstract state it keeps for that connection's
    client with one undo log per outstanding transaction, plus outcome
    counters."""

    __slots__ = ("domain_id", "manager", "owner", "state", "txns",
                 "structure", "policy", "shards", "stable", "label",
                 "commits", "aborts", "closed")

    def __init__(self, domain_id: int, manager, owner: int,
                 structure: str, policy: str, shards: int, stable: bool,
                 label: str) -> None:
        self.domain_id = domain_id
        self.manager = manager
        #: The id of the connection that opened the domain.
        self.owner = owner
        #: The client's abstract state, kept by the spec from the last
        #: ``state`` frame on; ``None`` until one arrives.
        self.state = None
        #: txn id -> the undo log of a transaction with recorded,
        #: unreleased operations (empty when it only read): one undo
        #: per mutator, as :class:`~repro.runtime.Transaction` keeps it.
        self.txns: dict[int, list] = {}
        self.structure = structure
        self.policy = policy
        self.shards = shards
        self.stable = stable
        self.label = label
        self.commits = 0
        self.aborts = 0
        self.closed = False

    def kept_state(self) -> Record:
        """The kept state; refused until a ``state`` frame set one."""
        if self.state is None:
            raise protocol.ProtocolError(
                f"domain {self.domain_id} has no state; send a state "
                f"frame first")
        return self.state

    def defined(self, op, args: tuple[Any, ...]) -> bool:
        """Whether ``op(args)`` may be recorded on the kept state: false
        only where its precondition is.  A precondition that cannot be
        evaluated there leaves the decision to the spec step; a state
        frame's field names match the spec's, so only an ill-typed
        value (say, a ``size`` that is not a number) can get here."""
        try:
            return self.manager.spec.precondition_holds(
                op, self.kept_state(), args)
        except (EvalError, LookupError, TypeError):
            return True

    def apply(self, txn_id: int, op, args: tuple[Any, ...]):
        """Advance the kept state by ``op(args)``, as the executor's
        structure handle does, and log a mutator's undo; returns the
        ``(before, after)`` states and the undo."""
        before = after = self.kept_state()
        undo_log = self.txns.setdefault(txn_id, [])
        undo = ()
        if op.mutator:
            # A discard variant steps as its base operation, whose
            # result its undo is resolved from.
            manager = self.manager
            base_name = op.base_name or op.name
            after, raw = manager.spec.operations[base_name].semantics(
                before, args)
            undo = manager.registry.resolve_undo(manager.ds_name, op,
                                                 args, raw)
            undo_log.append(undo)
            self.state = after
        return before, after, undo

    def undo(self, txn_id: int) -> None:
        """Drop ``txn_id``'s undo log after stepping the kept state
        through its calls, most recent undo first."""
        undo_log = self.txns.pop(txn_id, None)
        if not undo_log:
            return
        operations = self.manager.spec.operations
        state = self.state
        for undo in reversed(undo_log):
            for op_name, args in undo:
                state = operations[op_name].semantics(state, args)[0]
        self.state = state

    def close(self) -> None:
        self.closed = True
        self.state = None
        self.txns.clear()
        self.manager.close()

    def released(self) -> int:
        return self.commits + self.aborts

    def abort_rate(self) -> float:
        released = self.released()
        return self.aborts / released if released else 0.0

    def stats_payload(self) -> dict[str, Any]:
        return {"domain": self.domain_id, "structure": self.structure,
                "policy": self.policy, "shards": self.shards,
                "stable": self.stable,
                "label": self.label, "closed": self.closed,
                "commits": self.commits, "aborts": self.aborts,
                "abort_rate": self.abort_rate(),
                "counters": self.manager.counters(),
                "shard_stats": self.manager.shard_stats(),
                "eval_error_sample": self.manager.eval_error_samples()}


class AdmissionServer:
    """The admission service: frame RPCs plus the HTTP metrics side."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 registry=None, worker_id: int = 0) -> None:
        from ..api import resolve_registry
        self.host = host
        self.port = port
        self.registry = resolve_registry(registry)
        #: This server's position in a shard-partitioned cluster (0 in
        #: a single-process deployment); it owns every shard id with
        #: ``shard_id % len(cluster_ports) == worker_id``.
        self.worker_id = worker_id
        #: Every cluster worker's port, in worker-id order — the
        #: partition map the ``hello`` response hands to clients.
        #: ``None`` until the cluster handshake (single-process servers
        #: report a one-entry map of their own port).
        self.cluster_ports: list[int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._domains: dict[int, _Domain] = {}
        self._next_domain = 0
        self._conn_tasks: set[asyncio.Task] = set()
        #: Structures whose drift-stable conditions were compiled and
        #: registered on this server's registry (one compile each).
        self._stable_ready: set[str] = set()
        self._compile_lock = asyncio.Lock()
        self._started = time.monotonic()
        self.connections_total = 0
        self.active_connections = 0
        self.rpcs_total = 0
        self.frames_total = 0
        self.http_requests_total = 0
        self.domain_reuse_total = 0

    def set_cluster(self, worker_id: int, ports: list[int]) -> None:
        """Install the cluster map (called between bind and serve: the
        workers bind ephemeral ports first, then everyone learns the
        full port list before accepting traffic)."""
        self.worker_id = worker_id
        self.cluster_ports = list(ports)

    # -- lifecycle -----------------------------------------------------------

    async def start(self, sock=None) -> None:
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, grace: float = 5.0) -> None:
        """Graceful drain: stop accepting, let live connections finish
        their in-flight frames (every accepted frame is answered before
        the connection loop re-reads), cancel stragglers after
        ``grace`` seconds."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = set(self._conn_tasks)
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.connections_total += 1
        self.active_connections += 1
        conn = self.connections_total
        try:
            try:
                prefix = await reader.readexactly(4)
            except asyncio.IncompleteReadError:
                return
            if prefix == b"GET ":
                await self._serve_http(reader, writer)
                return
            await self._serve_frames(prefix, reader, writer, conn)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.active_connections -= 1
            self._abandon(conn)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_frames(self, first_prefix: bytes,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            conn: int) -> None:
        prefix = first_prefix
        while True:
            try:
                length = protocol.unpack_length(prefix)
                body = await reader.readexactly(length)
                frame = protocol.decode_body(body)
            except (protocol.ProtocolError, ValueError) as exc:
                writer.write(protocol.pack_frame(
                    protocol.error_response(str(exc))))
                await writer.drain()
                return
            except asyncio.IncompleteReadError:
                return
            self.rpcs_total += 1
            response = await self._dispatch(frame, conn)
            writer.write(protocol.pack_frame(response))
            await writer.drain()
            try:
                prefix = await reader.readexactly(4)
            except asyncio.IncompleteReadError:
                return

    async def _dispatch(self, frame: dict[str, Any],
                        conn: int) -> dict[str, Any]:
        kind = frame.get("t")
        if kind == "batch":
            subframes = frame.get("frames", ())
            results = []
            for sub in subframes:
                if sub.get("t") == "batch":
                    results.append(protocol.error_response(
                        "batch frames do not nest"))
                else:
                    results.append(await self._handle_one(sub, conn))
            return {"ok": True, "results": results}
        return await self._handle_one(frame, conn)

    async def _handle_one(self, frame: dict[str, Any],
                          conn: int) -> dict[str, Any]:
        self.frames_total += 1
        try:
            handler = getattr(self, f"_frame_{frame.get('t')}", None)
            if handler is None:
                return protocol.error_response(
                    f"unknown frame type {frame.get('t')!r}")
            return await handler(frame, conn)
        except protocol.ProtocolError as exc:
            return protocol.error_response(str(exc))
        except Exception as exc:  # a bad frame must not kill the server
            return protocol.error_response(
                f"{type(exc).__name__}: {exc}")

    def _domain(self, frame: dict[str, Any], conn: int) -> _Domain:
        """The open domain ``frame`` names, if connection ``conn``
        owns it."""
        domain = self._domains.get(frame.get("d"))
        if domain is None or domain.closed:
            raise protocol.ProtocolError(
                f"unknown or closed domain {frame.get('d')!r}")
        if domain.owner != conn:
            raise protocol.ProtocolError(
                f"domain {domain.domain_id} belongs to another connection")
        return domain

    # -- frame handlers ------------------------------------------------------

    async def _frame_hello(self, frame: dict[str, Any],
                           conn: int) -> dict[str, Any]:
        if frame.get("v") != protocol.PROTOCOL_VERSION:
            return protocol.error_response(
                f"protocol version mismatch: server speaks "
                f"{protocol.PROTOCOL_VERSION}, client sent "
                f"{frame.get('v')!r}")
        ports = (self.cluster_ports if self.cluster_ports is not None
                 else [self.port])
        return {"ok": True, "v": protocol.PROTOCOL_VERSION,
                "server": "repro-admission",
                "cluster": {"workers": len(ports),
                            "worker_id": self.worker_id,
                            "ports": list(ports)}}

    async def _frame_ping(self, frame: dict[str, Any],
                          conn: int) -> dict[str, Any]:
        return {"ok": True}

    async def _frame_open(self, frame: dict[str, Any],
                          conn: int) -> dict[str, Any]:
        structure = frame["structure"]
        stable = bool(frame.get("stable"))
        if stable:
            await self._ensure_stable(structure)
        manager = ConflictManager(structure,
                                  frame.get("policy", "commutativity"),
                                  registry=self.registry,
                                  shards=int(frame.get("shards", 1)),
                                  stable=stable)
        domain_id = self._next_domain
        self._next_domain += 1
        self._domains[domain_id] = _Domain(
            domain_id, manager, conn, structure,
            frame.get("policy", "commutativity"),
            int(frame.get("shards", 1)), stable,
            str(frame.get("label", "")))
        return {"ok": True, "domain": domain_id}

    async def _ensure_stable(self, structure: str) -> None:
        """Compile + register drift-stable conditions for ``structure``
        once per server (the engine cache makes reruns cheap); off the
        event loop — compilation is CPU work.  A registry that already
        carries stable conditions for the structure — an in-process
        server sharing its caller's registry after a prover or
        abduction compilation — is honoured as-is, so served
        decisions arm exactly the caller's tiers."""
        async with self._compile_lock:
            if structure in self._stable_ready:
                return
            if self.registry.has_stable_conditions(structure):
                self._stable_ready.add(structure)
                return
            from ..api import Session

            def compile_now() -> None:
                Session(registry=self.registry).compile_stable([structure])

            await asyncio.to_thread(compile_now)
            self._stable_ready.add(structure)

    @staticmethod
    def _shard_slice(manager, raw) -> tuple[int, ...]:
        """A client-supplied shard slice, validated and normalized to
        the ascending scan order every admission path uses."""
        try:
            ids = sorted({int(sid) for sid in raw})
        except (TypeError, ValueError):
            raise protocol.ProtocolError(f"bad shard slice {raw!r}")
        if ids and not 0 <= ids[0] <= ids[-1] < manager.num_shards:
            raise protocol.ProtocolError(
                f"shard slice {ids} outside [0, {manager.num_shards})")
        return tuple(ids)

    async def _frame_state(self, frame: dict[str, Any],
                           conn: int) -> dict[str, Any]:
        domain = self._domain(frame, conn)
        state = protocol.decode_value(frame["state"])
        if not isinstance(state, Record):
            raise protocol.ProtocolError(
                f"a state frame carries a record, not "
                f"{type(state).__name__}")
        fields = domain.manager.spec.state_fields
        if set(state) != set(fields):
            raise protocol.ProtocolError(
                f"{domain.structure} states have the fields "
                f"{sorted(fields)}, not {sorted(state)}")
        domain.state = state
        return {"ok": True}

    async def _frame_check(self, frame: dict[str, Any],
                           conn: int) -> dict[str, Any]:
        domain = self._domain(frame, conn)
        current = domain.kept_state()
        args = protocol.decode_value(frame["args"])
        manager = domain.manager
        if frame.get("shards") is None:
            shard_ids = manager.shards_for(frame["op"], args)
        else:
            shard_ids = self._shard_slice(manager, frame["shards"])
        admitted, holder, shard = manager.check_detail(
            frame["txn"], frame["op"], args, current, shard_ids=shard_ids)
        return {"ok": True, "admitted": admitted, "holder": holder,
                "shard": shard}

    async def _frame_record(self, frame: dict[str, Any],
                            conn: int) -> dict[str, Any]:
        domain = self._domain(frame, conn)
        manager = domain.manager
        op = manager.spec.operations.get(frame["op"])
        if op is None:
            raise protocol.ProtocolError(
                f"{domain.structure} has no operation {frame['op']!r}")
        args = protocol.decode_value(frame["args"])
        result = protocol.decode_value(frame["result"])
        if not isinstance(args, tuple) or len(args) != len(op.params):
            raise protocol.ProtocolError(
                f"{op.name} takes {len(op.params)} arguments, not "
                f"{args!r}")
        if not domain.defined(op, args):
            raise protocol.ProtocolError(
                f"{op.name}{args!r} is outside its precondition on the "
                f"kept state")
        if frame.get("shards") is None:
            shard_ids = manager.shards_for(op.name, args)
        else:
            shard_ids = self._shard_slice(manager, frame["shards"])
        before, after, undo = domain.apply(frame["txn"], op, args)
        if shard_ids:
            entry = LoggedOperation(txn_id=frame["txn"], op_name=op.name,
                                    args=args, result=result,
                                    before=before, after=after, undo=undo)
            manager.record(entry, shard_ids=shard_ids)
        return {"ok": True, "shards": list(shard_ids)}

    async def _frame_release(self, frame: dict[str, Any],
                             conn: int) -> dict[str, Any]:
        domain = self._domain(frame, conn)
        reason = frame.get("reason", "commit")
        domain.manager.release(frame["txn"], reason=reason)
        if reason == "abort":
            domain.undo(frame["txn"])
            domain.aborts += 1
        else:
            domain.txns.pop(frame["txn"], None)
            domain.commits += 1
        return {"ok": True}

    async def _frame_reset(self, frame: dict[str, Any],
                           conn: int) -> dict[str, Any]:
        """Domain reuse: wipe the log, kept state, undo logs, counters
        and outcomes but keep the manager — its memoized routes and
        undo verdicts stay warm, so a repeated workload run starts
        from a decision-identical empty log without re-deriving them."""
        domain = self._domain(frame, conn)
        domain.manager.reset()
        domain.state = None
        domain.txns.clear()
        domain.commits = 0
        domain.aborts = 0
        self.domain_reuse_total += 1
        return {"ok": True, "domain": domain.domain_id}

    async def _frame_stats(self, frame: dict[str, Any],
                           conn: int) -> dict[str, Any]:
        domain = self._domains.get(frame.get("d"))
        if domain is None:
            raise protocol.ProtocolError(
                f"unknown domain {frame.get('d')!r}")
        return {"ok": True, "stats": domain.stats_payload()}

    async def _frame_close(self, frame: dict[str, Any],
                           conn: int) -> dict[str, Any]:
        domain = self._domain(frame, conn)
        domain.close()
        self._prune_domains()
        return {"ok": True, "stats": domain.stats_payload()}

    def _abandon(self, conn: int) -> None:
        """Close every domain connection ``conn`` still holds open; each
        transaction outstanding in one counts as an abort.  Nothing
        else can touch those domains: they belong to ``conn``."""
        for domain in self._domains.values():
            if domain.owner == conn and not domain.closed:
                for txn_id in domain.txns:
                    domain.manager.release(txn_id, reason="abort")
                domain.aborts += len(domain.txns)
                domain.close()
        self._prune_domains()

    def _prune_domains(self) -> None:
        closed = [d for d in self._domains.values() if d.closed]
        excess = len(closed) - RETAINED_DOMAINS
        for domain in closed[:max(0, excess)]:
            del self._domains[domain.domain_id]

    # -- metrics -------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        domains = [d.stats_payload()
                   for d in sorted(self._domains.values(),
                                   key=lambda d: d.domain_id)]
        rates = [d.abort_rate() for d in self._domains.values()
                 if d.released()]
        return {
            "server": {
                "uptime_seconds": time.monotonic() - self._started,
                "connections_total": self.connections_total,
                "active_connections": self.active_connections,
                "rpcs_total": self.rpcs_total,
                "frames_total": self.frames_total,
                "http_requests_total": self.http_requests_total,
                "domains_open": sum(1 for d in self._domains.values()
                                    if not d.closed),
                "domains_total": self._next_domain,
                "domain_reuse_total": self.domain_reuse_total,
                "worker_id": self.worker_id,
                "cluster_workers": (len(self.cluster_ports)
                                    if self.cluster_ports else 1),
                "protocol_version": protocol.PROTOCOL_VERSION,
            },
            "domains": domains,
            "abort_rate_percentiles": {
                f"p{q}": percentile(rates, q) if rates else 0.0
                for q in (50, 95)},
        }

    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        self.http_requests_total += 1
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                asyncio.LimitOverrunError):
            return
        if len(head) > MAX_HTTP_HEAD:
            return
        # The b"GET " prefix was consumed by the sniff; the head starts
        # at the path.
        path = head.split(b" ", 1)[0].decode("latin-1", "replace")
        if path in ("/metrics", "/"):
            body = prometheus_text(self.metrics_snapshot())
            ctype = "text/plain; version=0.0.4; charset=utf-8"
            status = "200 OK"
        elif path == "/metrics.json":
            body = snapshot_json(self.metrics_snapshot())
            ctype = "application/json"
            status = "200 OK"
        else:
            body = "not found\n"
            ctype = "text/plain; charset=utf-8"
            status = "404 Not Found"
        payload = body.encode("utf-8")
        writer.write(
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + payload)
        await writer.drain()


def run_server(host: str = "127.0.0.1", port: int = 0, *, registry=None,
               on_ready: Callable[[int], None] | None = None,
               grace: float = 5.0, sock=None, worker_id: int = 0,
               cluster_ports: list[int] | None = None) -> None:
    """Run an admission server until SIGTERM/SIGINT, then drain.

    ``on_ready`` is called with the bound port once the listener is up
    (port 0 binds an ephemeral port) — the CLI prints it, the bench
    harness pipes it back to the parent process.  A cluster worker
    passes its pre-bound ``sock`` (the parent collected every worker's
    port before any of them serve) plus its ``worker_id`` and the full
    ``cluster_ports`` map, which the ``hello`` response hands to
    clients.
    """
    import signal

    async def main() -> None:
        server = AdmissionServer(host, port, registry=registry,
                                 worker_id=worker_id)
        if cluster_ports is not None:
            server.set_cluster(worker_id, cluster_ports)
        await server.start(sock=sock)
        if on_ready is not None:
            on_ready(server.port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, stop.set)
        serve = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        serve.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve
        await server.shutdown(grace=grace)

    asyncio.run(main())
