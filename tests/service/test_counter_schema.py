"""The admission counter schema drives every surface.

``repro.runtime.gatekeeper.COUNTERS`` declares each admission counter
once.  Every test here is parametrized over it, so a new entry is
covered without editing this file: the managers' ``counters()`` and
``shard_stats()`` (flat, sharded, served, two-worker cluster), the
``/metrics`` families, and the ``ExecutionReport``/``WorkloadRun``
attributes.
"""

import copy
import pickle

import pytest

from repro.api import Registry, Session
from repro.eval import Scope
from repro.runtime import (AdmissionBackend, LocalAdmissionBackend,
                           SpeculativeExecutor)
from repro.runtime.executor import ExecutionReport
from repro.runtime.gatekeeper import COUNTERS
from repro.service.client import ServiceBackend
from repro.workloads import ThroughputHarness, WorkloadSpec

from service_fixture import LiveCluster, LiveServer, scrape_metrics

#: A stable-armed ArrayList run whose seeded serial schedule trips the
#: drift guard, the conservative fallback and an EvalError, with pair
#: checks in two shards.  Hand-written because generated ArrayList
#: programs are index-safe, so their checks never raise EvalError.
#: Here the EvalError comes from ``get(10)``, checked
#: against a logged ``set_`` while the list still has ten elements: the
#: condition indexes past the end, the check resolves as a conflict, and
#: the transaction retries after an ``add_at`` has grown the list.
SETUP = [("add_at", (i, "a")) for i in range(10)]
PROGRAMS = [
    [("get", (9,)), ("add_at", (2, "y"))],
    [("set", (2, "y")), ("get", (1,))],
    [("set_", (2, "x")), ("get", (10,)), ("remove_at", (10,))],
    [("set_", (8, "y")), ("set", (1, "y")), ("add_at", (9, "y"))],
]
SEED = 12

#: Manager kind -> shard count.
MANAGERS = {"flat": 1, "sharded": 4, "served": 4, "cluster": 4}

#: A generated workload for the report surfaces.
WORKLOAD = WorkloadSpec(name="schema", profile="write-heavy",
                        distribution="hot-key", transactions=8,
                        ops_per_transaction=5, key_space=24,
                        value_space=3, preload=16, seed=2)


class _Capturing(AdmissionBackend):
    """Forwards to ``inner`` and keeps the last manager it built."""

    def __init__(self, inner: AdmissionBackend) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.supports_threads = inner.supports_threads
        self.manager = None

    def conflict_manager(self, ds_name: str, **kwargs):
        self.manager = self.inner.conflict_manager(ds_name, **kwargs)
        return self.manager


@pytest.fixture(scope="module")
def armed_registry():
    registry = Registry.with_builtins()
    Session(registry=registry, scope=Scope(),
            cache=False).compile_stable(["ArrayList"])
    return registry


@pytest.fixture(scope="module")
def servers(armed_registry):
    """A single server and a two-worker cluster sharing the armed
    registry, so served domains arm without compiling."""
    server = LiveServer(armed_registry)
    try:
        cluster = LiveCluster(2, armed_registry)
    except BaseException:
        server.stop()
        raise
    yield {"served": server, "cluster": cluster}
    cluster.stop()
    server.stop()


@pytest.fixture(scope="module")
def runs(armed_registry, servers):
    """Manager kind -> (report, the manager that decided it)."""
    results = {}
    for kind, shards in MANAGERS.items():
        if kind in servers:
            inner = ServiceBackend(servers[kind].host, servers[kind].port,
                                   registry=armed_registry)
        else:
            inner = LocalAdmissionBackend(armed_registry)
        backend = _Capturing(inner)
        try:
            report = SpeculativeExecutor(
                "ArrayList", registry=armed_registry, seed=SEED,
                shards=shards, stable=True,
                backend=backend).run(PROGRAMS, setup=SETUP)
        finally:
            inner.close()
        results[kind] = (report, backend.manager)
    return results


def test_the_run_trips_the_decision_paths(runs):
    digests = set()
    for kind, (report, _) in runs.items():
        assert report.serializable, kind
        for name in ("drift_checks", "stable_hits", "drift_fallbacks",
                     "eval_errors"):
            assert report.counters[name] > 0, (kind, name)
        digests.add(report.decision_digest())
    assert len(digests) == 1
    sharded = runs["sharded"][0].shard_stats
    assert sum(1 for s in sharded if s["conflict_checks"]) >= 2


@pytest.mark.parametrize("kind", MANAGERS)
def test_every_manager_reports_exactly_the_schema(runs, kind):
    _, manager = runs[kind]
    assert set(manager.counters()) == set(COUNTERS)
    stats = manager.shard_stats()
    assert len(stats) == MANAGERS[kind]
    for entry in stats:
        assert set(entry) == {"shard", "outstanding", *COUNTERS}


@pytest.mark.parametrize("name", COUNTERS)
@pytest.mark.parametrize("kind", MANAGERS)
def test_shards_sum_to_the_aggregate(runs, kind, name):
    _, manager = runs[kind]
    assert sum(s[name] for s in manager.shard_stats()) \
        == manager.counters()[name]


@pytest.fixture(scope="module")
def metrics_body(runs, servers):
    status, body = scrape_metrics(servers["served"].host,
                                  servers["served"].port)
    assert status == 200
    return body


@pytest.mark.parametrize("name", COUNTERS)
def test_metrics_export_both_families(metrics_body, name):
    for family, kind in ((f"repro_admission_{name}_total", "counter"),
                         (f"repro_shard_{name}", "counter")):
        assert f"# HELP {family} {COUNTERS[name]}\n" in metrics_body
        assert f"# TYPE {family} {kind}\n" in metrics_body


@pytest.fixture(scope="module")
def workload_run(armed_registry):
    return ThroughputHarness(registry=armed_registry).run_one(
        "ArrayList", WORKLOAD, workers=1, shards=4, stable=True)


@pytest.mark.parametrize("name", COUNTERS)
def test_counters_read_as_report_attributes(workload_run, name):
    report = workload_run.report
    assert set(report.counters) == set(COUNTERS)
    assert getattr(report, name) == report.counters[name]
    assert getattr(workload_run, name) == report.counters[name]


def test_other_names_raise_attribute_error(workload_run):
    assert workload_run.drift_checks > 0
    for target in (workload_run, workload_run.report):
        with pytest.raises(AttributeError):
            target.no_such_counter
    with pytest.raises(AttributeError):
        ExecutionReport("HashSet", "commutativity").no_such_counter


def test_an_unrun_report_reads_zero_counters():
    report = ExecutionReport("HashSet", "commutativity")
    for name in COUNTERS:
        assert getattr(report, name) == 0


def test_runs_copy_and_pickle(workload_run):
    for clone in (copy.copy(workload_run), copy.deepcopy(workload_run),
                  pickle.loads(pickle.dumps(workload_run))):
        assert clone.report.counters == workload_run.report.counters
        assert clone.conflict_checks == workload_run.conflict_checks
        assert clone.report.decision_digest() \
            == workload_run.report.decision_digest()
