"""The drift-stability compiler: verified conditions in, drift-stable
artifacts out.

For every between condition of a structure the compiler produces a
:class:`~repro.stability.quantified.PairStability` verdict:

- conditions that never mention abstract state are **stable** verbatim
  (the drift guard never fires for them — nothing to compile);
- for the drift-fragile rest, candidate formulas from the projector
  (arg/result-only disjuncts) and the footprint analyzer (router-derived
  argument relations, observed-result links, the ``s1 -> s2``
  re-anchoring) go through the quantified re-verifier; survivors are
  disjoined into a **weakened** drift-stable condition;
- pairs with no surviving candidate stay **fragile** and keep PR 4's
  conservative fallback at run time.

Compilation is staged IMM-style (Podkopaev et al.): it happens once,
offline, through the :mod:`repro.engine` planner/cache as its own task
kind — grouped by first operation so a group shares parsing and spec
setup — and the runtime consumes the compiled
:class:`StableCondition` artifacts via
:meth:`repro.api.Registry.register_stable_conditions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from ..commutativity.conditions import (CommutativityCondition, Kind,
                                        condition_symbols)
from ..eval.enumeration import Scope
from ..logic import parse_formula
from ..logic import terms as t
from ..specs.interface import DataStructureSpec
from .footprint import footprint_candidates
from .projector import state_free_projection
from .quantified import (CandidateResult, PairStability, _disjoin,
                         check_pair)

#: Bump whenever the candidate generator or the quantified check could
#: change a compiled verdict *or its recorded shape* — it is part of
#: the engine task key, so bumping retires every cached stability
#: outcome at once.  v2: candidate payload rows grew origin / proved /
#: countermodel columns and pairs a synthesis-stats section (the
#: abduction loop), so v1 cache entries must never deserialize into
#: the new shape.
STABILITY_COMPILER_VERSION = 2


@dataclass(frozen=True)
class StableCondition:
    """A compiled drift-stable condition for one operation pair.

    Evaluated by the gatekeeper's drift guard in the same environment
    as the pair's between condition (saved ``s1``, observed ``r1``,
    drifted ``s2``); a true verdict admits, anything else falls through
    to the conservative router oracle.
    """

    family: str
    m1: str
    m2: str
    #: The drift-stable formula over the pair's between vocabulary.
    text: str
    spec: DataStructureSpec = field(repr=False, default=None)
    #: ``"weakened"`` (bounded-sweep certificate), ``"proved"`` (every
    #: armed candidate symbolically proved over all states), or
    #: ``"synthesized"`` (at least one armed candidate abduced by the
    #: CEGIS loop).  The gatekeeper counts admissions through it —
    #: ``proved_hits`` vs ``synthesized_hits`` vs ``stable_hits`` — so
    #: the tier is decision-visible but never decision-changing: all
    #: tiers admit identically.
    tier: str = "weakened"

    def __post_init__(self) -> None:
        if self.spec is None:
            raise ValueError("StableCondition requires a spec")

    @cached_property
    def dynamic_formula(self) -> t.Term:
        op1 = self.spec.operations[self.m1]
        op2 = self.spec.operations[self.m2]
        return parse_formula(self.text,
                             condition_symbols(self.spec, op1, op2))

    @property
    def pair_label(self) -> str:
        return f"{self.m1};{self.m2}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.family}: {self.m1}; {self.m2} [drift-stable] "
                f"{self.text}")


def candidate_texts(cond: CommutativityCondition,
                    has_router: bool) -> list[str]:
    """All candidate drift-stable formulas for one fragile condition:
    the projector's arg/result weakening first (it carries the catalog
    author's intent), then the footprint-derived relations."""
    candidates: list[str] = []
    projection = state_free_projection(cond)
    if projection is not None:
        candidates.append(projection)
    candidates += footprint_candidates(cond, has_router)
    return list(dict.fromkeys(candidates))  # dedupe, preserving order


def compile_pair(spec: DataStructureSpec, cond: CommutativityCondition,
                 scope: Scope, has_router: bool) -> PairStability:
    """Compile one between condition into its stability verdict."""
    if cond.kind is not Kind.BETWEEN:
        raise ValueError(f"stability compiles between conditions, "
                         f"got {cond.kind}")
    if not cond.drift_fragile:
        return PairStability(m1=cond.m1, m2=cond.m2, verdict="stable",
                             stable_text=None)
    return check_pair(spec, cond, candidate_texts(cond, has_router),
                      scope)


def compile_group(spec: DataStructureSpec,
                  conditions: Iterable[CommutativityCondition],
                  scope: Scope,
                  has_router: bool) -> list[PairStability]:
    """Compile a group of fragile between conditions (one engine task:
    all pairs sharing a first operation)."""
    return [compile_pair(spec, cond, scope, has_router)
            for cond in conditions]


def merge_proofs(pair: PairStability, proof) -> PairStability:
    """Fold a :class:`~repro.prover.native.PairProof` into a bounded
    verdict (prover runs; parent-side, after both task kinds
    resolve).

    Per candidate: a **proved** obligation arms any candidate the
    bounded sweep passed — including the state-reading ones the sweep
    refuses to arm on its own — while a **refuted** obligation disarms
    even a bounded-armed candidate (the countermodel lives beyond the
    sweep's scope, but it is a real unsound admission).  Unsupported
    obligations change nothing.  The pair is promoted to the
    ``proved`` verdict when every armed candidate carries a proof;
    with a mixed or unproved armed set it stays ``weakened``.
    """
    by_text = {result.candidate: result for result in proof.results}
    candidates: list[CandidateResult] = []
    survivors: list[str] = []
    all_proved = True
    for c in pair.candidates:
        result = by_text.get(c.text)
        proved = result is not None and result.status == "proved"
        refuted = result is not None and result.status == "refuted"
        armed = (c.armed and not refuted) or (c.passed and proved)
        candidates.append(CandidateResult(
            text=c.text, passed=c.passed, armed=armed,
            admitted=c.admitted, violations=c.violations, proved=proved,
            countermodel=result.countermodel if refuted else None,
            origin=c.origin))
        if armed:
            survivors.append(c.text)
            all_proved = all_proved and proved
    stable_text = _disjoin(survivors)
    if stable_text is None:
        verdict = "fragile"
    elif all_proved:
        verdict = "proved"
    else:
        verdict = "weakened"
    return PairStability(
        m1=pair.m1, m2=pair.m2, verdict=verdict,
        stable_text=stable_text, candidates=tuple(candidates),
        cases=pair.cases + proof.cases,
        elapsed=pair.elapsed + proof.elapsed, synthesis=pair.synthesis)


def merge_synthesis(pair: PairStability, synth) -> PairStability:
    """Fold a :class:`~repro.abduction.loop.PairSynthesis` into a
    bounded (and possibly proof-merged) verdict (abduction runs;
    parent-side, after the ``ABDUCTION`` tasks resolve).

    Abduction only *adds* admission power: armed abduced candidates
    (already bounded-certified, and prover-screened for symbolic
    families inside the loop) are appended — deduplicated by text
    against the existing pool — and the pair's stable condition becomes
    the disjunction of every armed candidate, old and new.  A pair that
    gains at least one abduced armed candidate is promoted to the
    ``synthesized`` tier; a synthesis that found nothing changes
    nothing.  Prover-refuted abduced candidates are kept unarmed with
    their countermodels — the loop's debugging surface.
    """
    known = {c.text for c in pair.candidates}
    candidates = list(pair.candidates)
    gained = False
    for c in synth.conditions:
        if c.text in known:
            continue
        known.add(c.text)
        candidates.append(c)
        gained = gained or c.armed
    survivors = [c.text for c in candidates if c.armed]
    stable_text = _disjoin(survivors)
    verdict = "synthesized" if gained else pair.verdict
    if stable_text is None:
        verdict = "fragile"
    return PairStability(
        m1=pair.m1, m2=pair.m2, verdict=verdict,
        stable_text=stable_text, candidates=tuple(candidates),
        cases=pair.cases + synth.cases,
        elapsed=pair.elapsed + synth.elapsed,
        synthesis=synth.stats())


# -- plain-data (de)serialization for the engine cache ------------------------

def pair_payload(pair: PairStability) -> dict[str, Any]:
    """A JSON-shaped rendering of one verdict (task outcome payload).

    v2 rows (:data:`STABILITY_COMPILER_VERSION`): ``[text, passed,
    armed, admitted, violations, proved, countermodel, origin]``.
    Witnesses are deliberately dropped — they are the abduction loop's
    transient counterexample store, not part of the verdict.
    """
    return {
        "m1": pair.m1,
        "m2": pair.m2,
        "verdict": pair.verdict,
        "stable_text": pair.stable_text,
        "candidates": [[c.text, c.passed, c.armed, c.admitted,
                        c.violations, c.proved, c.countermodel,
                        c.origin] for c in pair.candidates],
        "cases": pair.cases,
        "synthesis": pair.synthesis,
    }


def pair_from_payload(payload: dict[str, Any],
                      elapsed: float = 0.0) -> PairStability:
    """Rebuild a verdict from a cached/worker payload (v2 shape only —
    the compiler-version bump retires every v1 cache entry, so a v1
    row can never reach this function through the engine)."""
    from .quantified import CandidateResult
    return PairStability(
        m1=payload["m1"], m2=payload["m2"],
        verdict=payload["verdict"],
        stable_text=payload.get("stable_text"),
        candidates=tuple(
            CandidateResult(text=text, passed=bool(passed),
                            armed=bool(armed), admitted=int(admitted),
                            violations=int(violations),
                            proved=bool(proved),
                            countermodel=countermodel,
                            origin=str(origin))
            for text, passed, armed, admitted, violations, proved,
            countermodel, origin in payload.get("candidates", ())),
        cases=int(payload.get("cases", 0)), elapsed=elapsed,
        synthesis=payload.get("synthesis"))
