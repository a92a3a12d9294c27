"""Shard-partitioned multi-process admission cluster, and the one
remote conflict manager.

One admission server is one event loop on one core.  The cluster runs
``N`` worker processes, each owning a disjoint slice of every domain's
shard space — shard ``s`` belongs to worker ``s % N`` — so admission
work for disjoint regions lands on different cores.  There is no
server-side router: the *client* learns the partition map from
``hello`` (every worker reports the same port list, installed before
any worker accepts traffic), opens one pooled connection per worker,
and splits each check/record/release by shard slice.  A single server
is the one-worker case: it owns every shard, so its client sends no
slice and the server routes each operation itself.

Frames carry operations, never states: each worker keeps the domain's
abstract state by the spec from the one ``state`` frame each run
sends, ahead of its first check or record (see :mod:`.protocol`).
Round-trips are amortized by pipelining: ``state``, ``record`` and
``release`` frames are buffered client-side per worker and flushed
inside that worker's *next* ``check`` as one ``batch`` frame.  A
transaction's final release rides with a later check; anything still
buffered flushes on stats collection or close.

Why the merged decisions are identical to a single-process server's
(the digest-identity anchor that makes the deployment change safe):

- Each domain has one serial client, and per-connection frame order is
  preserved.  Every worker receives the run's ``state`` frame, every
  record and every release, so every worker keeps the single process's
  abstract state: the same initial state, the same spec step per
  record, the same inverse calls per abort.  A check is decided only
  after every frame pipelined ahead of it on that worker's connection,
  so the state it sees is the state the single process sees.
- Each record carries the worker's owned slice of the routed shards
  (empty when the worker owns none), and a worker stores the entry
  only in that slice, so worker ``w``'s per-shard logs are
  byte-identical to the single process's logs for the shards ``w``
  owns.  Any check that could scan those shards is routed to ``w``,
  where it flushes the pending frames first — so no check ever misses
  an entry that a single process would have seen.
- A check scans shards in ascending id order and stops at the first
  conflict.  Each worker scans its slice ascending and reports the
  conflicting shard; the merge takes the smallest conflicting shard
  across workers, which is exactly the shard the single process would
  have stopped at — same verdict, same holder.
- Globally-interacting operations (``size``, ``indexOf``, ...) route
  to every shard, hence to every worker's slice; pair conditions are
  pure, so replicated checks agree everywhere.  Only *counters*
  differ (each worker checks its replica once), and counters are
  deliberately outside :meth:`ExecutionReport.decision_digest`.

The ascending-lock-order discipline needs no cross-worker coordination:
each worker's asyncio shard locks cover exactly its own slice, and the
client's serial per-domain traffic means there is nothing to deadlock
against.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from ..eval.values import Record
from ..runtime.sharding import ShardRouter, route
from . import protocol

#: Seconds a cluster has to start: every worker reports its port and,
#: after the map broadcast, its readiness, by one shared deadline.
CLUSTER_START_TIMEOUT = 30.0

#: A single worker's slices: none, the server routes for itself.
_UNSLICED = (None,)


# -- partitioning (pure helpers, shared by client and tests) -----------------

def worker_of(shard_id: int, workers: int) -> int:
    """The cluster worker owning ``shard_id``."""
    return shard_id % workers


def split_slices(shard_ids: Sequence[int],
                 workers: int) -> dict[int, tuple[int, ...]]:
    """Partition a routed shard set by owning worker, preserving the
    ascending scan order within each slice (``shard_ids`` arrive
    sorted from ``normalize_route``)."""
    plan: dict[int, list[int]] = {}
    for sid in shard_ids:
        plan.setdefault(worker_of(sid, workers), []).append(sid)
    return {w: tuple(ids) for w, ids in plan.items()}


def merge_verdicts(verdicts: Sequence[dict[str, Any]]) \
        -> tuple[bool, int | None, int | None]:
    """Merge per-worker check responses into the single-process
    verdict: admitted iff every slice admitted; otherwise the conflict
    at the smallest shard id wins (ascending scan order means that is
    the conflict a single process would have stopped at)."""
    first = None
    for verdict in verdicts:
        if not verdict.get("admitted") and (
                first is None or verdict["shard"] < first["shard"]):
            first = verdict
    if first is None:
        return True, None, None
    return False, first["holder"], int(first["shard"])


# -- the remote conflict manager ---------------------------------------------

class PartitionedConflictManager:
    """The executor-facing manager surface over one server or a
    shard-partitioned cluster: one pooled connection and one
    server-side domain per worker, frames split by shard slice,
    verdicts merged in order.

    Serial use only (one in-flight RPC per connection); the executor
    enforces this through ``ServiceBackend.supports_threads``.  With
    several workers the client routes each operation through
    :func:`~repro.runtime.sharding.route` with ``router``, the family
    router the servers run, so the split agrees with where entries are
    stored.  A single worker owns every shard: its frames carry no
    slice, it routes for itself, and ``router`` goes unread.
    """

    def __init__(self, clients, domains: Sequence[int], *,
                 policy: str = "commutativity", shards: int = 1,
                 router: ShardRouter | None = None) -> None:
        self._clients = list(clients)
        self._domains = list(domains)
        self._workers = len(self._clients)
        self.num_shards = shards
        self._policy = policy
        self._router = router
        #: Per-worker state/record/release frames awaiting that
        #: worker's next check (order preserved per connection =>
        #: decision identity).
        self._pending: list[list[dict[str, Any]]] = \
            [[] for _ in self._clients]
        #: Whether this run's ``state`` frames are on their way.
        self._state_sent = False
        self._stats: dict[str, Any] | None = None
        self._closed = False
        self.admission_latencies: list[float] = []

    # -- the admission hot path ----------------------------------------------

    def shards_for(self, op_name: str,
                   args: tuple[Any, ...]) -> tuple[int, ...]:
        """Nothing to lock locally (the serial executor's contract);
        the authoritative scan happens worker-side per slice."""
        return ()

    def _slices(self, op_name: str, args: tuple[Any, ...]) \
            -> Sequence[tuple[int, ...] | None]:
        """Each worker's slice of the shards ``op_name(args)`` touches,
        in worker order (empty where it owns none); a single worker
        gets ``None``, no slice, and routes itself."""
        if self._workers == 1:
            return _UNSLICED
        plan = split_slices(route(self._router, self._policy,
                                  self.num_shards, op_name, args),
                            self._workers)
        return [plan.get(worker, ()) for worker in range(self._workers)]

    def _send_state(self, state: Record) -> None:
        """Ship the first state this manager is handed, the run's
        initial state, at the head of every worker's pending frames."""
        if not self._state_sent:
            self._state_sent = True
            for worker, pending in enumerate(self._pending):
                pending.insert(0, protocol.state_frame(
                    self._domains[worker], state))

    def check_many(self, txn_id: int, op_name: str,
                   args: tuple[Any, ...], current: Record,
                   shard_ids=None) -> tuple[bool, int | None]:
        self._send_state(current)
        batches = []
        for worker, shards in enumerate(self._slices(op_name, args)):
            if shards == ():
                continue  # the worker owns none of the routed shards
            frames, self._pending[worker] = self._pending[worker], []
            frames.append(protocol.check_frame(
                self._domains[worker], txn_id, op_name, args,
                shards=shards))
            batches.append((self._clients[worker], frames))
        self._stats = None
        verdicts = []
        started = time.perf_counter()
        for client, frames in batches:
            verdicts.append(client.call_batch(frames)[-1])
        self.admission_latencies.append(time.perf_counter() - started)
        admitted, holder, _ = merge_verdicts(verdicts)
        return admitted, holder

    def record(self, entry, shard_ids=None) -> tuple[int, ...]:
        """Sent to *every* worker, each with its owned slice of the
        routed shards (possibly empty): every worker advances its kept
        state, and only the owners store the entry."""
        self._send_state(entry.before)
        for worker, shards in enumerate(self._slices(entry.op_name,
                                                     entry.args)):
            self._pending[worker].append(protocol.record_frame(
                self._domains[worker], entry.txn_id, entry.op_name,
                entry.args, entry.result, shards=shards))
        self._stats = None
        return ()

    def release(self, txn_id: int, reason: str = "commit") -> None:
        """Released on *every* worker: a worker that logged nothing
        for the transaction treats it as a no-op pop but still counts
        the outcome, so per-worker commit/abort metrics agree."""
        for worker in range(self._workers):
            self._pending[worker].append(protocol.release_frame(
                self._domains[worker], txn_id, reason))
        self._stats = None

    def touched(self, txn_id: int) -> tuple[int, ...]:
        return ()

    # -- stats surface (merged across workers) --------------------------------

    def _flush_all(self) -> None:
        for worker, frames in enumerate(self._pending):
            if frames:
                self._pending[worker] = []
                self._clients[worker].call_batch(frames)

    def stats(self) -> dict[str, Any]:
        if self._stats is None:
            self._flush_all()
            per_worker = [
                client.call(protocol.stats_frame(domain))["stats"]
                for client, domain in zip(self._clients, self._domains)]
            self._stats = self._merge_stats(per_worker)
        return self._stats

    def _merge_stats(self,
                     per_worker: list[dict[str, Any]]) -> dict[str, Any]:
        """One domain view from the per-worker slices: shard ``s``
        comes from its owner, aggregate counters are summed (slices
        are disjoint), and outcomes come from any worker — every
        release is delivered to every worker, so after a flush they
        all agree (max is robust mid-flight)."""
        merged = dict(per_worker[0])
        merged["counters"] = {
            key: sum(stats["counters"].get(key, 0)
                     for stats in per_worker)
            for key in per_worker[0]["counters"]}
        merged["shard_stats"] = [
            per_worker[worker_of(sid, self._workers)]["shard_stats"][sid]
            for sid in range(self.num_shards)]
        merged["commits"] = max(s["commits"] for s in per_worker)
        merged["aborts"] = max(s["aborts"] for s in per_worker)
        released = merged["commits"] + merged["aborts"]
        merged["abort_rate"] = (merged["aborts"] / released
                                if released else 0.0)
        merged["eval_error_sample"] = [
            sample for stats in per_worker
            for sample in stats["eval_error_sample"]]
        merged["cluster_workers"] = self._workers
        return merged

    def counters(self) -> dict[str, int]:
        return dict(self.stats()["counters"])

    def eval_error_samples(self) -> list[dict[str, Any]]:
        return list(self.stats()["eval_error_sample"])

    def shard_stats(self) -> list[dict[str, int]]:
        return [dict(stats) for stats in self.stats()["shard_stats"]]

    def close(self) -> None:
        """Flush every pipeline and snapshot merged final stats.  The
        domains and connections belong to the backend's pool — the
        next execution resets the domains instead of re-opening."""
        if self._closed:
            return
        self._closed = True
        self._flush_all()
        self.stats()


# -- cluster process management ----------------------------------------------

def worker_entry(conn, host: str) -> None:
    """Subprocess target for one cluster worker: bind an ephemeral
    port, report it, learn the full cluster map (two-phase handshake —
    every worker knows every port before any of them serve), then run
    the admission server until SIGTERM."""
    import socket as socket_mod
    sock = socket_mod.create_server((host, 0))
    conn.send(sock.getsockname()[1])
    worker_id, ports = conn.recv()
    from .server import run_server

    def ready(port: int) -> None:
        conn.send("ready")
        conn.close()

    run_server(host, 0, sock=sock, worker_id=worker_id,
               cluster_ports=ports, on_ready=ready)


def await_report(conn, process, deadline: float, who: str) -> Any:
    """The next message ``process`` sends on ``conn`` by ``deadline``
    (a :func:`time.monotonic` time).  Raises :class:`RuntimeError` when
    the deadline passes first, or when the process exits first, naming
    its exit code."""
    if not conn.poll(max(0.0, deadline - time.monotonic())):
        raise RuntimeError(f"{who} did not report in time")
    try:
        return conn.recv()
    except EOFError:
        process.join(5.0)
        raise RuntimeError(f"{who} exited with code {process.exitcode} "
                           f"before reporting") from None


def start_cluster(workers: int, host: str = "127.0.0.1"):
    """Spawn ``workers`` admission-server processes, broadcast the
    partition map, wait until every worker serves; returns
    ``(processes, ports)`` with ports in worker-id order.  The whole
    start has :data:`CLUSTER_START_TIMEOUT` seconds."""
    import multiprocessing as mp
    ctx = mp.get_context("spawn")
    processes, pipes = [], []
    try:
        for worker_id in range(workers):
            parent, child = ctx.Pipe()
            process = ctx.Process(
                target=worker_entry, args=(child, host),
                name=f"repro-admission-worker-{worker_id}")
            process.start()
            child.close()
            processes.append(process)
            pipes.append(parent)
        deadline = time.monotonic() + CLUSTER_START_TIMEOUT
        names = [f"cluster worker {worker_id}"
                 for worker_id in range(workers)]
        ports = [await_report(parent, process, deadline, who)
                 for parent, process, who in zip(pipes, processes, names)]
        for worker_id, parent in enumerate(pipes):
            parent.send((worker_id, ports))
        for parent, process, who in zip(pipes, processes, names):
            await_report(parent, process, deadline, who)
            parent.close()
    except BaseException:
        stop_cluster(processes)
        raise
    return processes, ports


def stop_cluster(processes) -> None:
    """SIGTERM every worker (graceful drain), escalate stragglers."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(10.0)
        if process.is_alive():
            process.kill()
            process.join(5.0)
