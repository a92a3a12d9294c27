"""Picklable verification tasks and their worker-side execution.

A :class:`VerifyTask` carries only plain data — names, a
:class:`~repro.eval.enumeration.Scope` (a frozen dataclass of tuples),
and a content-address key — never a spec, condition, or registry, whose
executable semantics (closures, lambdas) do not survive pickling.  The
worker re-resolves names against a registry on its side of the process
boundary and returns an equally plain :class:`TaskOutcome`; the parent
reattaches conditions and inverse specs when assembling reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..eval.enumeration import Scope

#: Task kinds.
COMMUTATIVITY = "commutativity"
INVERSE = "inverse"
STABILITY = "stability"
SYMBOLIC_STABILITY = "symbolic_stability"
ABDUCTION = "abduction"

#: Verification backends for commutativity tasks.
BACKENDS = ("bounded", "symbolic")

#: Registry used by pool workers (fork-inherited); ``None`` means the
#: package default.  See :class:`~repro.engine.runner.ParallelRunner`.
_WORKER_REGISTRY = None


def set_worker_registry(registry) -> None:
    global _WORKER_REGISTRY
    _WORKER_REGISTRY = registry


@dataclass(frozen=True)
class VerifyTask:
    """One independent proof obligation shard.

    Commutativity tasks cover every condition of one operation pair
    (before/between/after share case enumeration, tripling throughput);
    inverse tasks cover one Property-3 obligation.
    """

    index: int
    kind: str
    structure: str
    backend: str
    scope: Scope
    #: Commutativity: the ``(m1, m2)`` operation pair.
    pair: tuple[str, str] | None = None
    #: Inverse: position within the family's inverse catalog, plus the
    #: operation name for display.
    inverse_index: int | None = None
    inverse_op: str | None = None
    #: Stability: the first operation of the compiled condition group
    #: (one task covers every fragile pair sharing it).
    group: str | None = None
    use_dynamic: bool = False
    #: Content-address of the obligation (see :mod:`.fingerprint`).
    key: str = ""

    @property
    def label(self) -> str:
        if self.kind == COMMUTATIVITY:
            return f"{self.structure} {self.pair[0]};{self.pair[1]}"
        if self.kind == STABILITY:
            return f"{self.structure} {self.group};* stability"
        if self.kind == SYMBOLIC_STABILITY:
            return f"{self.structure} {self.group};* prover"
        if self.kind == ABDUCTION:
            return f"{self.structure} {self.group};* abduce"
        return f"{self.structure} {self.inverse_op}^-1"


@dataclass(frozen=True)
class ObligationOutcome:
    """Per-condition (or per-inverse) result, stripped to picklable data."""

    cases: int
    elapsed: float
    counterexamples: tuple = ()
    #: Kind-specific plain data (stability: the compiled verdict, see
    #: :func:`repro.stability.compiler.pair_payload`).  JSON-shaped so
    #: the result cache can persist it verbatim.
    payload: Any = None

    @property
    def verified(self) -> bool:
        return not self.counterexamples


@dataclass(frozen=True)
class TaskOutcome:
    """What a worker (or the cache) returns for one task."""

    index: int
    #: Shared enumeration wall time of the task (not the per-condition sum).
    elapsed: float
    results: tuple[ObligationOutcome, ...]
    cached: bool = False

    @property
    def verified(self) -> bool:
        return all(r.verified for r in self.results)


@dataclass(frozen=True)
class TaskTiming:
    """One row of a report's per-task timing breakdown."""

    label: str
    kind: str
    backend: str
    elapsed: float
    cached: bool
    key: str


def _resolve(registry):
    from ..api import resolve_registry
    return resolve_registry(registry if registry is not None
                            else _WORKER_REGISTRY)


def execute_task(task: VerifyTask, registry=None) -> TaskOutcome:
    """Run one task against a registry (the worker entry point)."""
    registry = _resolve(registry)
    if task.kind == COMMUTATIVITY:
        return _execute_commutativity(task, registry)
    if task.kind == INVERSE:
        return _execute_inverse(task, registry)
    if task.kind == STABILITY:
        return _execute_stability(task, registry)
    if task.kind == SYMBOLIC_STABILITY:
        return _execute_symbolic_stability(task, registry)
    if task.kind == ABDUCTION:
        return _execute_abduction(task, registry)
    raise ValueError(f"unknown task kind {task.kind!r}")


def _execute_commutativity(task: VerifyTask, registry) -> TaskOutcome:
    spec = registry.spec(task.structure)
    conditions = [c for c in registry.conditions(task.structure)
                  if (c.m1, c.m2) == task.pair]
    if not conditions:
        raise ValueError(f"no conditions for pair {task.pair!r} "
                         f"of {task.structure!r}")
    if task.backend == "bounded":
        from ..commutativity.bounded import check_conditions
        results = check_conditions(spec, conditions, task.scope,
                                   use_dynamic=task.use_dynamic)
    elif task.backend == "symbolic":
        from ..solver.engine import check_conditions_symbolic
        results = check_conditions_symbolic(spec, conditions, task.scope)
    else:
        raise ValueError(f"unknown backend {task.backend!r}")
    return TaskOutcome(
        index=task.index, elapsed=results[0].elapsed,
        results=tuple(ObligationOutcome(r.cases, r.elapsed,
                                        tuple(r.counterexamples))
                      for r in results))


def _execute_stability(task: VerifyTask, registry) -> TaskOutcome:
    """Compile the drift-stability verdicts of one condition group."""
    from ..commutativity.conditions import Kind
    from ..stability.compiler import compile_group, pair_payload
    spec = registry.spec(task.structure)
    conditions = [c for c in registry.conditions(task.structure)
                  if c.kind is Kind.BETWEEN and c.m1 == task.group
                  and c.drift_fragile]
    if not conditions:
        raise ValueError(f"no fragile between conditions in group "
                         f"{task.group!r} of {task.structure!r}")
    pairs = compile_group(spec, conditions, task.scope,
                          registry.has_shard_router(task.structure))
    return TaskOutcome(
        index=task.index,
        elapsed=sum(pair.elapsed for pair in pairs),
        results=tuple(ObligationOutcome(cases=pair.cases,
                                        elapsed=pair.elapsed,
                                        payload=pair_payload(pair))
                      for pair in pairs))


def _execute_symbolic_stability(task: VerifyTask, registry) -> TaskOutcome:
    """Discharge the symbolic proof obligations of one condition group
    (prover runs; same grouping as the bounded stability task)."""
    from ..commutativity.conditions import Kind
    from ..prover.backend import discharge_pair, proof_payload
    from ..stability.compiler import candidate_texts
    spec = registry.spec(task.structure)
    conditions = [c for c in registry.conditions(task.structure)
                  if c.kind is Kind.BETWEEN and c.m1 == task.group
                  and c.drift_fragile]
    if not conditions:
        raise ValueError(f"no fragile between conditions in group "
                         f"{task.group!r} of {task.structure!r}")
    has_router = registry.has_shard_router(task.structure)
    proofs = [discharge_pair(spec, cond,
                             candidate_texts(cond, has_router),
                             task.scope)
              for cond in conditions]
    return TaskOutcome(
        index=task.index,
        elapsed=sum(proof.elapsed for proof in proofs),
        results=tuple(ObligationOutcome(cases=proof.cases,
                                        elapsed=proof.elapsed,
                                        payload=proof_payload(proof))
                      for proof in proofs))


def _execute_abduction(task: VerifyTask, registry) -> TaskOutcome:
    """Run the CEGIS synthesis loop for one condition group
    (abduction runs; same grouping as the bounded stability task)."""
    from ..abduction.loop import synthesis_payload, synthesize_pair
    from ..commutativity.conditions import Kind
    spec = registry.spec(task.structure)
    conditions = [c for c in registry.conditions(task.structure)
                  if c.kind is Kind.BETWEEN and c.m1 == task.group
                  and c.drift_fragile]
    if not conditions:
        raise ValueError(f"no fragile between conditions in group "
                         f"{task.group!r} of {task.structure!r}")
    syntheses = [synthesize_pair(spec, cond, task.scope)
                 for cond in conditions]
    return TaskOutcome(
        index=task.index,
        elapsed=sum(synth.elapsed for synth in syntheses),
        results=tuple(ObligationOutcome(cases=synth.cases,
                                        elapsed=synth.elapsed,
                                        payload=synthesis_payload(synth))
                      for synth in syntheses))


def _execute_inverse(task: VerifyTask, registry) -> TaskOutcome:
    from ..inverses.verifier import check_inverse
    inverse = registry.inverses(task.structure)[task.inverse_index]
    result = check_inverse(task.structure, inverse, task.scope,
                           registry=registry)
    outcome = ObligationOutcome(result.cases, result.elapsed,
                                tuple(result.counterexamples))
    return TaskOutcome(index=task.index, elapsed=result.elapsed,
                       results=(outcome,))
