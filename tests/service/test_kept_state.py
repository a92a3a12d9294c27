"""The two copies of the abstract state agree.

The executor keeps its structure's abstract state by the spec
(``StructureHandle``), and every server domain keeps its client's copy
the same way from the operations the frames carry.  After every check,
each worker domain that has seen every frame sent so far must hold the
state the executor decided with, in a single server and in a 2-worker
cluster, and the frames that name operations must not grow with the
state."""

import pytest

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.api import Session
from repro.runtime import SpeculativeExecutor
from repro.service import protocol
from repro.service.client import ServiceBackend
from repro.service.cluster import PartitionedConflictManager
from repro.workloads import WorkloadGenerator, WorkloadSpec

from service_fixture import LiveCluster, LiveServer

STRUCTURES = ("Accumulator", "ListSet", "HashSet", "AssociationList",
              "HashTable", "ArrayList", DEMO_FAMILY)
SHAPES = (
    dict(profile="read-heavy", distribution="uniform", transactions=8,
         ops_per_transaction=6, key_space=24, preload=12),
    dict(profile="write-heavy", distribution="hot-key", transactions=8,
         ops_per_transaction=4, key_space=12, value_space=3, preload=8),
)


@pytest.fixture(scope="module")
def registry():
    """Builtins plus the custom RegisterCell, armed at the bounded
    tier."""
    registry = make_demo_registry()
    Session(registry=registry, cache=False, jobs=1).compile_stable()
    return registry


@pytest.fixture(scope="module")
def nodes(registry):
    server, cluster = LiveServer(registry), LiveCluster(2, registry)
    yield {"served": (server, [server.server]),
           "cluster2": (cluster, [s.server for s in cluster.servers])}
    server.stop()
    cluster.stop()


class _ComparingManager:
    """Forwards to a served manager; after every check, compares each
    worker domain with no frames still pending to the executor's
    state."""

    def __init__(self, inner, servers, compared: list) -> None:
        self._inner = inner
        self._servers = servers
        self._compared = compared

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def kept_states(self):
        """``(kept state, in step)`` per worker domain, in worker order:
        in step when no frame for it is still pending client-side."""
        inner = self._inner
        if isinstance(inner, PartitionedConflictManager):
            domains, pending = inner._domains, inner._pending
        else:
            domains, pending = [inner._domain], [inner._pending]
        return [(server._domains[domain].state, not queued)
                for server, domain, queued
                in zip(self._servers, domains, pending)]

    def check_many(self, txn_id, op_name, args, current, shard_ids=None):
        verdict = self._inner.check_many(txn_id, op_name, args, current,
                                         shard_ids=shard_ids)
        for kept, in_step in self.kept_states():
            if in_step:
                assert kept == current, (txn_id, op_name, args)
                self._compared.append(txn_id)
        return verdict


class _ComparingBackend(ServiceBackend):
    def __init__(self, node, servers, registry) -> None:
        super().__init__(node.host, node.port, registry=registry)
        self._servers = servers
        self.compared: list = []
        self.manager = None

    def conflict_manager(self, ds_name, **kwargs):
        self.manager = _ComparingManager(
            super().conflict_manager(ds_name, **kwargs), self._servers,
            self.compared)
        return self.manager


def _run(registry, name, shape, mode, shards, backend=None):
    generator = WorkloadGenerator(registry)
    workload = WorkloadSpec(seed=5, **shape)
    return SpeculativeExecutor(
        name, "commutativity", seed=5, registry=registry, shards=shards,
        conflict_mode=mode, stable=True, max_rounds=50_000,
        backend=backend).run(generator.generate(name, workload),
                             setup=generator.generate_setup(name, workload))


@pytest.mark.parametrize("name", STRUCTURES)
@pytest.mark.parametrize("mode", ("abort", "block"))
@pytest.mark.parametrize("shards", (1, 4))
def test_every_worker_keeps_the_executors_state(registry, nodes, name,
                                                mode, shards):
    aborted = 0
    for shape in SHAPES:
        local = _run(registry, name, shape, mode, shards)
        aborted += local.aborts
        for label, (node, servers) in nodes.items():
            backend = _ComparingBackend(node, servers, registry)
            try:
                report = _run(registry, name, shape, mode, shards, backend)
                assert backend.compared, label
                # Every frame is flushed by the run's close: the final
                # releases, aborts included, reached every worker.
                for kept, in_step in backend.manager.kept_states():
                    assert in_step and kept == report.final_state, label
            finally:
                backend.close()
            assert report.serializable, label
            assert report.decision_digest() == local.decision_digest(), \
                label
    if mode == "abort":
        assert aborted, "no abort replay was exercised"


def test_operation_frames_do_not_grow_with_the_state(live_server,
                                                     monkeypatch):
    """The same HashSet programs over 20 and over 2,000 preloaded keys:
    every check and record frame is as large at 2,000 as at 20 (the
    programs touch only keys both runs preload, so they decide alike).
    Only the one state frame per run grows."""
    sizes: dict[str, list[int]] = {}

    def measured(kind, build):
        def wrapper(*args, **kwargs):
            frame = build(*args, **kwargs)
            sizes.setdefault(kind, []).append(
                len(protocol.pack_frame(frame)))
            return frame
        return wrapper

    for kind in ("state", "check", "record"):
        monkeypatch.setattr(protocol, f"{kind}_frame",
                            measured(kind, getattr(protocol,
                                                   f"{kind}_frame")))
    generator = WorkloadGenerator()
    shape = dict(profile="write-only", distribution="hot-key",
                 transactions=8, ops_per_transaction=4, seed=3)
    programs = generator.generate("HashSet",
                                  WorkloadSpec(key_space=20, **shape))
    runs = {}
    for preload in (20, 2000):
        setup = generator.generate_setup(
            "HashSet", WorkloadSpec(key_space=preload, preload=preload,
                                    **shape))
        sizes.clear()
        backend = ServiceBackend(live_server.host, live_server.port)
        try:
            report = SpeculativeExecutor("HashSet", seed=3,
                                         backend=backend).run(
                programs, setup=setup)
        finally:
            backend.close()
        assert report.serializable
        runs[preload] = dict(sizes)
    small, large = runs[20], runs[2000]
    assert len(large["state"]) == len(small["state"]) == 1
    assert large["state"][0] > 10 * small["state"][0]
    for kind in ("check", "record"):
        assert len(large[kind]) == len(small[kind]) > 0, kind
        assert all(big <= little
                   for big, little in zip(large[kind], small[kind])), kind
