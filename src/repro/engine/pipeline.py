"""Plan -> cache-filter -> fan out -> reassemble reports.

This is the engine's front door, behind
:func:`repro.commutativity.verifier.verify_all`,
:func:`repro.inverses.verifier.check_all_inverses`, and
:meth:`repro.api.Session.verify_all`.

Report determinism: results are appended in catalog order (not worker
completion order) and a report's ``elapsed`` is the *sum* of its task
times rather than host wall-clock.  Cache hits restore the case count
and elapsed recorded when the obligation was proven, so a warm rerun is
byte-identical to the cold run that populated the cache.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..commutativity.bounded import CheckResult
from ..commutativity.verifier import VerificationReport
from ..eval.enumeration import Scope
from ..inverses.verifier import InverseCheckResult
from .cache import ResultCache
from .planner import TaskPlan, TaskPlanner
from .runner import ParallelRunner
from .tasks import TaskOutcome, TaskTiming


def _resolve(registry):
    from ..api import resolve_registry
    return resolve_registry(registry)


def _execute_plan(plan: TaskPlan, registry, jobs, cache) \
        -> dict[int, TaskOutcome]:
    """Serve tasks from the cache, run the misses, persist new proofs."""
    store = ResultCache.resolve(cache)
    if store is not None:
        store.refresh()
    outcomes: dict[int, TaskOutcome] = {}
    pending = []
    for task in plan.tasks:
        payload = plan.payloads[task.index]
        expected = len(payload) if isinstance(payload, tuple) else 1
        hit = (store.get(task, expected_results=expected)
               if store is not None else None)
        if hit is not None:
            outcomes[task.index] = hit
        else:
            pending.append(task)
    if pending:
        runner = ParallelRunner(jobs=jobs, registry=registry)
        by_index = {task.index: task for task in pending}
        for outcome in runner.run(pending):
            outcomes[outcome.index] = outcome
            if store is not None:
                store.put(by_index[outcome.index], outcome)
        if store is not None:
            store.save()
    return outcomes


def _timing(plan: TaskPlan, index: int, outcome: TaskOutcome) -> TaskTiming:
    task = plan.task(index)
    return TaskTiming(label=task.label, kind=task.kind, backend=task.backend,
                      elapsed=outcome.elapsed, cached=outcome.cached,
                      key=task.key)


def run_verification(scope: Scope | None = None, backend: str = "bounded",
                     names: Sequence[str] | None = None, registry=None,
                     jobs: int | None = None, cache=False,
                     use_dynamic: bool = False) \
        -> dict[str, VerificationReport]:
    """Verify commutativity conditions as a sharded task graph."""
    registry = _resolve(registry)
    scope = scope or Scope()
    if names is None:
        names = tuple(name for name in registry.names()
                      if registry.has_conditions(name))
    names = tuple(dict.fromkeys(names))  # reports are keyed by name
    planner = TaskPlanner(registry)
    plan = planner.plan_verification(names, scope, backend,
                                     use_dynamic=use_dynamic)
    outcomes = _execute_plan(plan, registry, jobs, cache)
    reports: dict[str, VerificationReport] = {}
    for name in names:
        report = VerificationReport(name=name, backend=backend)
        for index in plan.structure_tasks[name]:
            outcome = outcomes[index]
            for cond, result in zip(plan.payloads[index], outcome.results):
                report.results.append(CheckResult(
                    condition=cond, cases=result.cases,
                    counterexamples=list(result.counterexamples),
                    elapsed=result.elapsed, cached=outcome.cached))
            report.task_timings.append(_timing(plan, index, outcome))
        report.elapsed = math.fsum(t.elapsed for t in report.task_timings)
        reports[name] = report
    return reports


def run_stability_compilation(scope: Scope | None = None,
                              names: Sequence[str] | None = None,
                              registry=None, jobs: int | None = None,
                              cache=False, prover: bool = False,
                              abduce: bool = False):
    """Compile drift-stability verdicts as a sharded task graph.

    Returns ``{structure name: StabilityReport}``.  Verdicts for
    arg/result-only conditions are assembled parent-side (they need no
    computation); only drift-fragile condition groups become tasks, so
    the plan parallelizes and caches exactly the expensive part.

    With ``prover=True`` a second, independently cached task kind
    (``SYMBOLIC_STABILITY``) discharges each group's candidate
    obligations through :mod:`repro.prover`; proofs are folded into the
    bounded verdicts parent-side
    (:func:`repro.stability.compiler.merge_proofs`), arming proved
    state-reading candidates and promoting fully-proved pairs to the
    ``proved`` verdict.

    With ``abduce=True`` a third cached task kind (``ABDUCTION``) runs
    the CEGIS synthesis loop of :mod:`repro.abduction` per group;
    syntheses merge parent-side after the proofs
    (:func:`repro.stability.compiler.merge_synthesis`), appending
    armed abduced candidates and promoting pairs that gained one to
    the ``synthesized`` tier.
    """
    from ..commutativity.conditions import Kind
    from ..stability.compiler import (merge_proofs, merge_synthesis,
                                      pair_from_payload)
    from ..stability.quantified import PairStability
    from ..stability.report import StabilityReport
    registry = _resolve(registry)
    scope = scope or Scope()
    if names is None:
        names = tuple(name for name in registry.names()
                      if registry.has_conditions(name))
    names = tuple(dict.fromkeys(names))
    planner = TaskPlanner(registry)
    plan = planner.plan_stability(names, scope)
    outcomes = _execute_plan(plan, registry, jobs, cache)
    proof_plan = proof_outcomes = None
    if prover:
        from ..prover.backend import proof_from_payload
        proof_plan = planner.plan_symbolic_stability(names, scope)
        proof_outcomes = _execute_plan(proof_plan, registry, jobs, cache)
    synth_plan = synth_outcomes = None
    if abduce:
        synth_plan = planner.plan_abduction(names, scope)
        synth_outcomes = _execute_plan(synth_plan, registry, jobs, cache)
    reports: dict[str, "StabilityReport"] = {}
    for name in names:
        report = StabilityReport(name=name,
                                 family=registry.family_of(name))
        compiled: dict[tuple[str, str], PairStability] = {}
        for index in plan.structure_tasks[name]:
            outcome = outcomes[index]
            for cond, result in zip(plan.payloads[index],
                                    outcome.results):
                compiled[(cond.m1, cond.m2)] = pair_from_payload(
                    result.payload, elapsed=result.elapsed)
            report.task_timings.append(_timing(plan, index, outcome))
        if prover:
            for index in proof_plan.structure_tasks[name]:
                outcome = proof_outcomes[index]
                for cond, result in zip(proof_plan.payloads[index],
                                        outcome.results):
                    pair = (cond.m1, cond.m2)
                    compiled[pair] = merge_proofs(
                        compiled[pair],
                        proof_from_payload(result.payload,
                                           elapsed=result.elapsed))
                report.task_timings.append(
                    _timing(proof_plan, index, outcome))
        if abduce:
            from ..abduction.loop import synthesis_from_payload
            for index in synth_plan.structure_tasks[name]:
                outcome = synth_outcomes[index]
                for cond, result in zip(synth_plan.payloads[index],
                                        outcome.results):
                    pair = (cond.m1, cond.m2)
                    compiled[pair] = merge_synthesis(
                        compiled[pair],
                        synthesis_from_payload(result.payload,
                                               elapsed=result.elapsed))
                report.task_timings.append(
                    _timing(synth_plan, index, outcome))
        # Report entries follow catalog order, fragile or not.
        for cond in registry.conditions(name):
            if cond.kind is not Kind.BETWEEN:
                continue
            if cond.drift_fragile:
                report.pairs.append(compiled[(cond.m1, cond.m2)])
            else:
                report.pairs.append(PairStability(
                    m1=cond.m1, m2=cond.m2, verdict="stable"))
        report.elapsed = math.fsum(t.elapsed
                                   for t in report.task_timings)
        reports[name] = report
    return reports


def run_inverse_verification(scope: Scope | None = None,
                             names: Sequence[str] | None = None,
                             registry=None, jobs: int | None = None,
                             cache=False) -> list[InverseCheckResult]:
    """Check Property 3 for registered inverses as a sharded task graph."""
    registry = _resolve(registry)
    scope = scope or Scope()
    if names is None:
        names = registry.families()
    names = tuple(dict.fromkeys(names))
    planner = TaskPlanner(registry)
    plan = planner.plan_inverses(names, scope)
    outcomes = _execute_plan(plan, registry, jobs, cache)
    results: list[InverseCheckResult] = []
    for name in names:
        for index in plan.structure_tasks[name]:
            outcome = outcomes[index]
            (obligation,) = outcome.results
            results.append(InverseCheckResult(
                inverse=plan.payloads[index], cases=obligation.cases,
                counterexamples=list(obligation.counterexamples),
                elapsed=obligation.elapsed, cached=outcome.cached))
    return results
