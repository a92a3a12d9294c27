"""One remote manager serves a single server and a cluster.

A single server is a one-worker cluster that routes for itself: its
client sends ``check`` and ``record`` frames without a ``shards`` slice
and needs no registry.  A cluster client routes each operation with
the family router and sends every worker its own slice."""

import pytest

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.service import protocol
from repro.service.client import ServiceBackend, ServiceClient
from repro.service.cluster import split_slices
from repro.runtime.sharding import keyed_router, route
from repro.workloads import ThroughputHarness, WorkloadSpec

from service_fixture import LiveServer

SHARDS = 4

WORKLOAD = WorkloadSpec(name="one-manager", profile="write-heavy",
                        distribution="hot-key", transactions=6,
                        ops_per_transaction=4, key_space=12,
                        value_space=3, preload=6, seed=3)


def test_single_server_needs_no_client_registry():
    """RegisterCell has no router and only the server's registry knows
    it: a backend built without ``registry=`` serves it through one
    server with the local run's digest."""
    registry = make_demo_registry()
    server = LiveServer(registry)
    backend = ServiceBackend(server.host, server.port)
    try:
        harness = ThroughputHarness(registry=registry, workers=1)
        local = harness.run_one(DEMO_FAMILY, WORKLOAD, shards=SHARDS)
        served = harness.run_one(DEMO_FAMILY, WORKLOAD, shards=SHARDS,
                                 backend=backend)
    finally:
        backend.close()
        server.stop()
    assert served.commits == WORKLOAD.transactions
    assert served.report.decision_digest() \
        == local.report.decision_digest()


@pytest.fixture()
def sent(monkeypatch):
    """Every check and record frame a client sends, with the worker id
    of the connection it went out on."""
    frames = []
    call_batch = ServiceClient.call_batch

    def capture(client, batch):
        frames.extend((client.cluster["worker_id"], frame)
                      for frame in batch
                      if frame["t"] in ("check", "record"))
        return call_batch(client, batch)

    monkeypatch.setattr(ServiceClient, "call_batch", capture)
    return frames


def _run_hashset(node):
    backend = ServiceBackend(node.host, node.port)
    try:
        run = ThroughputHarness(workers=1).run_one(
            "HashSet", WORKLOAD, shards=SHARDS, backend=backend)
    finally:
        backend.close()
    assert run.serializable


def test_single_server_frames_carry_no_slice(live_server, sent):
    _run_hashset(live_server)
    assert {frame["t"] for _, frame in sent} == {"check", "record"}
    assert all("shards" not in frame for _, frame in sent)


def test_cluster_frames_carry_each_workers_slice(live_cluster, sent):
    _run_hashset(live_cluster)
    assert {worker for worker, _ in sent} == {0, 1}
    for worker, frame in sent:
        routed = route(keyed_router, "commutativity", SHARDS, frame["op"],
                       protocol.decode_value(frame["args"]))
        assert frame["shards"] \
            == list(split_slices(routed, 2).get(worker, ())), frame
