"""The shard-partitioned cluster: partition-map handshake, pooled
connections with interleaved batches, split/merge order preservation
(seeded property test), four-leg digest identity over every builtin,
domain reuse via ``reset``, and the client's connect backoff."""

import random

import pytest

from repro.eval import Record
from repro.runtime import LoggedOperation
from repro.runtime.sharding import arraylist_router, route
from repro.service import protocol
from repro.service.bench import start_server, stop_server
from repro.service.client import (ServiceBackend, ServiceClient,
                                  ServiceError)
from repro.service.cluster import (PartitionedConflictManager,
                                   merge_verdicts, split_slices,
                                   start_cluster, stop_cluster, worker_of)
from repro.workloads import ThroughputHarness, WorkloadSpec

from service_fixture import LiveCluster

SHARDS = 4


def _seq_state(*elems):
    return Record(elems=tuple(elems), size=len(elems))


def _workload(seed=7):
    return WorkloadSpec(name="cluster-mixed", profile="mixed",
                        distribution="uniform", transactions=8,
                        ops_per_transaction=6, key_space=16,
                        value_space=3, preload=8, seed=seed)


@pytest.fixture(scope="module")
def live_cluster4():
    cluster = LiveCluster(4)
    yield cluster
    cluster.stop()


# -- the partition-map handshake ---------------------------------------------

def test_hello_round_trips_the_partition_map(live_cluster):
    """Every worker's hello reports the same port list and its own
    worker id — the client can bootstrap from any of them."""
    for worker_id, port in enumerate(live_cluster.ports):
        client = ServiceClient(live_cluster.host, port)
        try:
            assert client.cluster == {
                "workers": 2, "worker_id": worker_id,
                "ports": live_cluster.ports}
        finally:
            client.close()


def test_single_process_hello_reports_a_one_entry_map(live_server):
    client = ServiceClient(live_server.host, live_server.port)
    try:
        assert client.cluster == {"workers": 1, "worker_id": 0,
                                  "ports": [live_server.port]}
    finally:
        client.close()


def test_backend_pools_one_connection_per_worker(live_cluster):
    """Bootstrapping from the *second* worker's port still yields a
    pool in worker-id order."""
    backend = ServiceBackend(live_cluster.host, live_cluster.ports[1])
    try:
        clients = backend._pool()
        assert [client.port for client in clients] \
            == live_cluster.ports
        assert [client.cluster["worker_id"] for client in clients] \
            == [0, 1]
    finally:
        backend.close()


# -- split/merge (pure helpers + seeded property test) ------------------------

def test_split_and_merge_preserve_frame_order():
    """Property test (seeded stdlib ``random``): for any sorted shard
    route and worker count, the split is a partition into ascending
    per-worker slices owned by ``shard % workers``, and merging the
    per-slice verdicts reproduces the single ascending scan's first
    conflict — same verdict, same holder, same shard."""
    rng = random.Random(20260808)
    for _ in range(300):
        shards = rng.choice((1, 2, 4, 8, 16))
        workers = rng.randint(1, 5)
        route = tuple(sorted(rng.sample(
            range(shards), rng.randint(1, shards))))
        plan = split_slices(route, workers)
        flat = sorted(sid for ids in plan.values() for sid in ids)
        assert flat == list(route)  # a partition: nothing lost, nothing doubled
        for worker, ids in plan.items():
            assert list(ids) == sorted(ids)  # ascending scan order kept
            assert all(worker_of(sid, workers) == worker
                       for sid in ids)
        # Seed conflicts on a random subset; each worker reports its
        # slice's first conflict, like the server-side ascending scan.
        holders = {sid: rng.randrange(100) for sid in route
                   if rng.random() < 0.4}
        verdicts = []
        for worker in sorted(plan):
            hit = next((sid for sid in plan[worker]
                        if sid in holders), None)
            verdicts.append(
                {"admitted": hit is None, "shard": hit,
                 "holder": None if hit is None else holders[hit]})
        admitted, holder, shard = merge_verdicts(verdicts)
        first = next((sid for sid in route if sid in holders), None)
        if first is None:
            assert (admitted, holder, shard) == (True, None, None)
        else:
            assert (admitted, holder, shard) \
                == (False, holders[first], first)


def test_interleaved_batches_across_two_pooled_connections(live_cluster):
    """Pipelined record/release frames stay buffered per worker and
    flush only inside a check routed to that worker — the two pooled
    connections interleave without reordering either one."""
    backend = ServiceBackend(live_cluster.host, live_cluster.port)
    try:
        manager = backend.conflict_manager("ArrayList", shards=SHARDS)
        assert isinstance(manager, PartitionedConflictManager)

        def shards_of(index):
            return route(arraylist_router, "commutativity", SHARDS, "set",
                         (index, "x"))

        # Two indices whose single-shard routes land on different
        # workers (shard % 2 differs).
        by_worker = {}
        for index in range(SHARDS * 4):
            shards = shards_of(index)
            if len(shards) == 1:
                by_worker.setdefault(shards[0] % 2, index)
        assert set(by_worker) == {0, 1}
        i0, i1 = by_worker[0], by_worker[1]
        elems = ["a"] * (SHARDS * 4)
        after = _seq_state(*elems)
        for index in (i0, i1):
            before, elems[index] = after, "b"
            after = _seq_state(*elems)
            manager.record(LoggedOperation(
                txn_id=1, op_name="set", args=(index, "b"),
                result="a", before=before, after=after,
                undo=(("set", (index, "a")),)))
        # Every worker sees every record, behind the run's state frame,
        # so that each keeps the client's state.
        assert [[frame["t"] for frame in pending]
                for pending in manager._pending] \
            == [["state", "record", "record"]] * 2
        # A check on i1's worker flushes *that* batch only, and sees
        # the freshly recorded conflicting write in order.
        admitted, holder = manager.check_many(2, "set", (i1, "x"),
                                              after)
        assert (admitted, holder) == (False, 1)
        flushed = worker_of(shards_of(i1)[0], 2)
        assert manager._pending[flushed] == []
        assert len(manager._pending[1 - flushed]) == 3
        # The other worker's batch flushes with its own check, still
        # ahead of it in frame order.
        admitted, holder = manager.check_many(2, "set", (i0, "x"),
                                              after)
        assert (admitted, holder) == (False, 1)
        assert [len(pending) for pending in manager._pending] == [0, 0]
        manager.release(1, "abort")
        manager.release(2, "abort")
        manager.close()
    finally:
        backend.close()


# -- the digest-identity anchor ----------------------------------------------

def _assert_digest_identity(seed, nodes):
    harness = ThroughputHarness(workers=1)
    workload = _workload(seed)
    for structure in harness.runnable_structures():
        local = harness.run_one(structure, workload,
                                policy="commutativity", workers=1,
                                shards=SHARDS)
        digests = {"local": local.report.decision_digest()}
        for label, host, port in nodes:
            backend = ServiceBackend(host, port,
                                     label=f"{label}-{structure}")
            try:
                run = harness.run_one(structure, workload,
                                      policy="commutativity",
                                      workers=1, shards=SHARDS,
                                      backend=backend)
            finally:
                backend.close()
            digests[label] = run.report.decision_digest()
            assert run.report.commit_order \
                == local.report.commit_order, (structure, label, seed)
        assert len(set(digests.values())) == 1, (structure, seed, digests)


def test_four_leg_digest_identity_for_every_builtin(
        live_server, live_cluster, live_cluster4):
    """Local, single-process served, 2-worker cluster, 4-worker
    cluster: byte-identical decision digests (and commit order) for
    every runnable builtin structure.  Seed 71 also runs against
    spawned nodes, a server child and 2- and 4-worker clusters: the
    in-thread nodes share this process's registry, while each spawned
    one builds its own."""
    in_thread = [(label, node.host, node.port)
                 for label, node in (("served", live_server),
                                     ("cluster2", live_cluster),
                                     ("cluster4", live_cluster4))]
    _assert_digest_identity(7, in_thread)
    server, port = start_server()
    clusters = []
    try:
        for workers in (2, 4):
            clusters.append(start_cluster(workers))
        spawned = [("spawned", "127.0.0.1", port)] + [
            (f"spawned-cluster{len(ports)}", "127.0.0.1", ports[0])
            for _, ports in clusters]
        _assert_digest_identity(71, in_thread + spawned)
    finally:
        stop_server(server)
        for processes, _ in clusters:
            stop_cluster(processes)


# -- domain reuse and epoch bumps --------------------------------------------

def test_domain_reuse_preserves_decisions(live_cluster):
    """A second execution through the same pooled backend resets the
    cached domains instead of re-opening — identical digests."""
    backend = ServiceBackend(live_cluster.host, live_cluster.port)
    try:
        harness = ThroughputHarness(workers=1)
        workload = _workload()
        first = harness.run_one("HashSet", workload,
                                policy="commutativity", workers=1,
                                shards=SHARDS, backend=backend)
        assert backend.domain_reuses == 0
        second = harness.run_one("HashSet", workload,
                                 policy="commutativity", workers=1,
                                 shards=SHARDS, backend=backend)
        assert backend.domain_reuses == 1
        assert first.report.decision_digest() \
            == second.report.decision_digest()
        # An epoch bump invalidates the cache: the next execution
        # opens fresh domains (and still decides identically).
        backend.bump_epoch()
        third = harness.run_one("HashSet", workload,
                                policy="commutativity", workers=1,
                                shards=SHARDS, backend=backend)
        assert backend.domain_reuses == 1
        assert third.report.decision_digest() \
            == first.report.decision_digest()
    finally:
        backend.close()


def test_reset_frame_clears_the_log_and_counters(live_server):
    client = ServiceClient(live_server.host, live_server.port)
    try:
        domain = client.call(protocol.open_frame(
            "ArrayList", shards=2, label="reset-test"))["domain"]
        client.call(protocol.state_frame(domain, _seq_state("a")))
        client.call(protocol.record_frame(domain, 1, "set", (0, "b"),
                                          "a"))
        verdict = client.call(protocol.check_frame(
            domain, 2, "set", (0, "x")))
        assert verdict["admitted"] is False
        client.call(protocol.reset_frame(domain))
        stats = client.call(protocol.stats_frame(domain))["stats"]
        assert stats["counters"]["conflict_checks"] == 0
        assert stats["counters"]["conflicts"] == 0
        assert stats["commits"] == 0 and stats["aborts"] == 0
        assert all(shard["outstanding"] == 0
                   for shard in stats["shard_stats"])
        # The drained log admits what conflicted before the reset,
        # once the next run has sent its state.
        client.call(protocol.state_frame(domain, _seq_state("b")))
        verdict = client.call(protocol.check_frame(
            domain, 2, "set", (0, "x")))
        assert verdict["admitted"] is True
        client.call(protocol.close_frame(domain))
    finally:
        client.close()


def test_reset_of_a_closed_domain_is_refused(live_server):
    client = ServiceClient(live_server.host, live_server.port)
    try:
        domain = client.call(protocol.open_frame(
            "ArrayList", shards=2, label="reset-closed"))["domain"]
        client.call(protocol.close_frame(domain))
        with pytest.raises(ServiceError, match="closed domain"):
            client.call(protocol.reset_frame(domain))
    finally:
        client.close()


# -- connect retry with bounded backoff ---------------------------------------

def test_connect_retries_with_exponential_backoff(monkeypatch):
    """Connecting to a dead port retries ``connect_retries`` times
    with doubling (bounded) sleeps before surfacing the OSError."""
    import socket as socket_mod
    from repro.service import client as client_mod
    with socket_mod.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    sleeps = []
    monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
    with pytest.raises(OSError):
        ServiceClient("127.0.0.1", dead_port, connect_retries=3,
                      backoff=0.05)
    assert sleeps == [0.05, 0.1, 0.2]


def test_backoff_sleeps_are_capped(monkeypatch):
    from repro.service import client as client_mod
    import socket as socket_mod
    with socket_mod.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    sleeps = []
    monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
    with pytest.raises(OSError):
        ServiceClient("127.0.0.1", dead_port, connect_retries=4,
                      backoff=1.5)
    assert sleeps == [1.5, client_mod.MAX_BACKOFF_SECONDS,
                      client_mod.MAX_BACKOFF_SECONDS,
                      client_mod.MAX_BACKOFF_SECONDS]


def test_cluster_stats_merge_to_one_domain_view(live_cluster):
    """After a run, the merged stats look like one domain: summed
    slice counters, per-shard rows from their owners, and agreeing
    commit/abort outcomes."""
    backend = ServiceBackend(live_cluster.host, live_cluster.port)
    try:
        harness = ThroughputHarness(workers=1)
        run = harness.run_one("HashSet", _workload(),
                              policy="commutativity", workers=1,
                              shards=SHARDS, backend=backend)
        stats = run.report
        assert stats.commits == 8  # every transaction commits eventually
        assert stats.serializable
        assert stats.conflict_checks > 0
    finally:
        backend.close()
