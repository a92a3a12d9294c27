"""The SYMBOLIC_STABILITY task kind through the engine: execution,
cache persistence, and parent-side proof merging."""

import pytest

from repro.api import Registry
from repro.engine import ResultCache, execute_task, run_stability_compilation
from repro.engine.planner import TaskPlanner
from repro.engine.tasks import SYMBOLIC_STABILITY, VerifyTask
from repro.eval import Scope

SCOPE = Scope()


@pytest.fixture
def registry() -> Registry:
    return Registry.with_builtins()


def test_execute_symbolic_stability_task(registry):
    plan = TaskPlanner(registry).plan_symbolic_stability(("HashSet",),
                                                         SCOPE)
    assert plan.tasks
    task = next(t for t in plan.tasks if t.group == "add_")
    assert task.kind == SYMBOLIC_STABILITY
    assert task.backend == "native"
    assert "prover" in task.label
    outcome = execute_task(task, registry)
    assert len(outcome.results) == len(plan.payloads[task.index])
    for cond, result in zip(plan.payloads[task.index], outcome.results):
        payload = result.payload
        assert payload["m1"] == cond.m1 and payload["m2"] == cond.m2
        assert all(r["status"] in ("proved", "refuted", "unsupported")
                   for r in payload["results"])


def test_execute_rejects_unknown_group(registry):
    task = VerifyTask(index=0, kind=SYMBOLIC_STABILITY,
                      structure="HashSet", backend="native",
                      scope=SCOPE, group="frobnicate")
    with pytest.raises(ValueError):
        execute_task(task, registry)


def test_proofs_are_served_from_cache(tmp_path, registry):
    cache = ResultCache(tmp_path / "cache")
    cold = run_stability_compilation(SCOPE, names=["HashSet"],
                                     registry=registry, cache=cache,
                                     prover=True)
    warm = run_stability_compilation(SCOPE, names=["HashSet"],
                                     registry=registry, cache=cache,
                                     prover=True)
    report_cold, report_warm = cold["HashSet"], warm["HashSet"]
    assert report_cold.cache_hits == 0
    assert report_warm.cache_hits == len(report_warm.task_timings) > 0
    # Proof-bearing verdicts round-trip byte-identically, proved flags
    # and countermodels included.
    assert [(p.m1, p.m2, p.verdict, p.stable_text, p.candidates)
            for p in report_warm.pairs] \
        == [(p.m1, p.m2, p.verdict, p.stable_text, p.candidates)
            for p in report_cold.pairs]
    assert report_warm.proved_count > 0
    assert any(c.countermodel is not None for p in report_warm.pairs
               for c in p.candidates)


def test_prover_off_reuses_bounded_tasks_only(tmp_path, registry):
    cache = ResultCache(tmp_path / "cache")
    with_prover = run_stability_compilation(SCOPE, names=["HashSet"],
                                            registry=registry,
                                            cache=cache, prover=True)
    without = run_stability_compilation(SCOPE, names=["HashSet"],
                                        registry=registry, cache=cache)
    # The bounded tasks are shared (served warm); dropping the prover
    # simply leaves the proof tasks out, restoring bounded verdicts.
    report = without["HashSet"]
    assert report.cache_hits == len(report.task_timings) > 0
    assert report.proved_count == 0
    assert with_prover["HashSet"].proved_count > 0


def test_stability_report_proved_tier_flows_to_conditions(registry):
    reports = run_stability_compilation(SCOPE, names=["HashSet"],
                                        registry=registry, prover=True)
    report = reports["HashSet"]
    conditions = report.stable_conditions(registry.spec("HashSet"))
    assert conditions
    assert all(c.tier in ("weakened", "proved") for c in conditions)
    assert any(c.tier == "proved" for c in conditions)
    assert "proved" in report.summary()
