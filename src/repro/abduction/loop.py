"""The CEGIS loop: counterexample-guided synthesis of stable
admission conditions.

For one drift-fragile pair the loop walks the conjunction lattice over
the pair's atom alphabet (:mod:`.atoms`) **weakest-first**: width-1
conjunctions (single atoms) before width-2, so the first condition to
survive is the weakest — the one that admits the most.  Each frontier
round is decided by ONE bounded quantified sweep
(:func:`repro.stability.quantified.check_pair` batches every candidate
through a shared case enumeration), and the sweep's refutations drive
the walk:

- a **violating observation** ``(args1, args2, r1)`` recorded for a
  failed candidate joins the loop's counterexample store; future
  frontier candidates whose conjunction still holds on a stored
  observation are **pruned without a sweep** (they would be refuted by
  the same trace);
- the failed candidate is **strengthened**: for every alphabet atom
  false at the witness, the conjunction plus that atom enters the next
  frontier (the child provably rejects the refuting trace);
- a **vacuous** candidate (admitted nothing in scope) is a dead end —
  strengthening only shrinks its admission set further;
- candidates that **arm** are re-screened by the symbolic prover
  (:func:`repro.prover.backend.discharge_pair`): a *refuted* candidate
  is disarmed and its countermodel's ``(root, drift, args, r1)``
  valuation — when its argument/result reprs parse back into concrete
  values — strengthens the lattice exactly like a bounded witness;
  otherwise the loop pivots to the rest of the frontier.  *Unsupported*
  obligations (custom families outside the theory fragment) change
  nothing: the candidate keeps its bounded certificate, the same
  license every state-free armed weakening has carried since PR 5.

The walk terminates at a fixpoint (empty frontier) or a per-pair
budget.  Results are plain data (:class:`PairSynthesis`) so the engine
can cache them as its own ``ABDUCTION`` task kind; the parent merges
them into the pair's verdict via
:func:`repro.stability.compiler.merge_synthesis`, promoting pairs that
gained an armed abduced candidate to the ``synthesized`` tier.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field, replace
from typing import Any

from ..commutativity.conditions import (CommutativityCondition,
                                        condition_symbols, pair_layout)
from ..eval.enumeration import Scope
from ..eval.interpreter import EvalContext, EvalError
from ..logic import ParseError, parse_formula
from ..logic.compile import compile_term
from ..specs.interface import DataStructureSpec
from ..stability.quantified import CandidateResult, check_pair
from .atoms import atom_pool

#: Bump whenever the alphabet, the walk, or the recorded shape of a
#: synthesis could change — part of every ABDUCTION task key, so
#: bumping retires all cached syntheses at once.
ABDUCTION_VERSION = 1

#: Widest conjunction the walk will propose.
MAX_WIDTH = 3

#: Per-pair budget of sweep-checked candidates.
MAX_CHECKED = 48

#: Frontier cap per round (weakest-first order makes the cut safe:
#: dropped candidates are the most-strengthened ones).
MAX_FRONTIER = 24

#: Violating observations recorded per failed candidate per sweep.
WITNESS_LIMIT = 4


@dataclass(frozen=True)
class PairSynthesis:
    """The abduction outcome for one pair: every candidate the loop
    decided (armed, or prover-refuted with its countermodel), plus the
    lattice-walk statistics."""

    m1: str
    m2: str
    #: Armed abduced candidates (``origin="abduced"``) and
    #: prover-refuted ones kept unarmed with their countermodels.
    conditions: tuple[CandidateResult, ...] = ()
    #: Candidates decided by a bounded sweep.
    checked: int = 0
    #: Candidates refuted by the counterexample store without a sweep.
    pruned: int = 0
    #: Armed candidates the prover later refuted (and disarmed).
    refuted: int = 0
    #: Frontier rounds walked.
    rounds: int = 0
    cases: int = 0
    elapsed: float = field(default=0.0, compare=False)

    @property
    def pair_label(self) -> str:
        return f"{self.m1};{self.m2}"

    @property
    def armed(self) -> tuple[CandidateResult, ...]:
        return tuple(c for c in self.conditions if c.armed)

    def stats(self) -> dict[str, int]:
        """The lattice-walk trace, JSON-shaped for payloads/reports."""
        return {"checked": self.checked, "pruned": self.pruned,
                "refuted": self.refuted, "rounds": self.rounds,
                "armed": len(self.armed)}


def synthesize_pair(spec: DataStructureSpec,
                    cond: CommutativityCondition, scope: Scope,
                    prover: bool = True,
                    budget: int = MAX_CHECKED) -> PairSynthesis:
    """Run the CEGIS walk for one drift-fragile between condition."""
    start = time.perf_counter()
    op1, op2 = cond.op1, cond.op2
    ctx = EvalContext(observe=spec.observe)
    table = condition_symbols(spec, op1, op2)
    # The state-free layout of an observation (see _observation_slots).
    names = pair_layout(op1, op2)
    compiled: dict[str, Any] = {}
    for atom in atom_pool(op1, op2):
        try:
            compiled[atom] = compile_term(parse_formula(atom, table),
                                          names, ctx)
        except ParseError:
            continue
    pool = list(compiled)

    def conj_text(atoms: frozenset) -> str:
        ordered = [a for a in pool if a in atoms]
        if len(ordered) == 1:
            return ordered[0]
        return " & ".join(f"({a})" for a in ordered)

    def holds(atom: str, env: list) -> bool:
        # Unevaluable counts as holding: the atom might admit the
        # refuting trace, so it neither prunes nor strengthens.
        try:
            return bool(compiled[atom](env))
        except EvalError:
            return True

    def strengthen(cand: frozenset, env: list) -> list:
        return [cand | {atom} for atom in pool
                if atom not in cand and not holds(atom, env)]

    store: list[list] = []
    decided: list[CandidateResult] = []
    armed_sets: list[frozenset] = []
    checked = pruned = refuted = rounds = cases = 0
    frontier = [frozenset([atom]) for atom in pool]
    seen: set[frozenset] = set(frontier)
    while frontier and checked < budget:
        rounds += 1
        batch: list[frozenset] = []
        children: list[frozenset] = []
        for cand in frontier:
            if any(s <= cand for s in armed_sets):
                continue  # subsumed: a weaker conjunction already armed
            witness = next(
                (env for env in store
                 if all(holds(atom, env) for atom in cand)), None)
            if witness is not None:
                pruned += 1
                children += strengthen(cand, witness)
                continue
            if checked + len(batch) < budget:
                batch.append(cand)
        if batch:
            texts = [conj_text(cand) for cand in batch]
            sweep = check_pair(spec, cond, texts, scope,
                               witness_limit=WITNESS_LIMIT)
            cases += sweep.cases
            checked += len(batch)
            by_text = {r.text: r for r in sweep.candidates}
            newly_armed: list[tuple[frozenset, CandidateResult]] = []
            for cand, text in zip(batch, texts):
                result = by_text.get(text)
                if result is None:
                    continue  # out of vocabulary — dropped by the sweep
                if result.armed:
                    newly_armed.append((cand, result))
                elif result.witnesses:
                    for obs in result.witnesses:
                        store.append(_observation_slots(cond, *obs))
                    children += strengthen(
                        cand, _observation_slots(cond,
                                                 *result.witnesses[0]))
                # else: vacuous — a dead end, spawn nothing.
            children += _screen(spec, cond, scope, newly_armed,
                                decided, armed_sets, strengthen,
                                prover)
            refuted = sum(1 for c in decided
                          if not c.armed and c.countermodel is not None)
        frontier = []
        for child in children:
            if len(child) > MAX_WIDTH or child in seen:
                continue
            seen.add(child)
            frontier.append(child)
            if len(frontier) >= MAX_FRONTIER:
                break
    return PairSynthesis(
        m1=cond.m1, m2=cond.m2, conditions=tuple(decided),
        checked=checked, pruned=pruned, refuted=refuted, rounds=rounds,
        cases=cases, elapsed=time.perf_counter() - start)


def _screen(spec, cond, scope, newly_armed, decided, armed_sets,
            strengthen, prover) -> list[frozenset]:
    """Prover-screen a round's bounded-armed candidates; returns the
    strengthened children of any the prover refuted."""
    from ..prover.backend import discharge_pair
    children: list[frozenset] = []
    if not newly_armed:
        return children
    verdicts = {}
    if prover:
        proof = discharge_pair(spec, cond,
                               [r.text for _, r in newly_armed], scope)
        verdicts = {p.candidate: p for p in proof.results}
    for cand, result in newly_armed:
        abduced = CandidateResult(
            text=result.text, passed=True, armed=True,
            admitted=result.admitted, violations=0, origin="abduced")
        verdict = verdicts.get(result.text)
        if verdict is not None and verdict.status == "refuted":
            decided.append(replace(abduced, armed=False,
                                   countermodel=verdict.countermodel))
            env = _countermodel_env(cond, verdict.countermodel)
            if env is not None:
                children += strengthen(cand, env)
            continue  # otherwise: pivot — the frontier walks on
        if verdict is not None and verdict.status == "proved":
            abduced = replace(abduced, proved=True)
        decided.append(abduced)
        armed_sets.append(cand)
    return children


def _observation_slots(cond: CommutativityCondition, args1: tuple,
                       args2: tuple, r1: Any) -> list:
    """One value per name of ``pair_layout(op1, op2)``: the arguments,
    then ``r1`` when the first operation returns a value."""
    env = [*args1, *args2]
    if cond.op1.result_sort is not None:
        env.append(r1)
    return env


def _countermodel_env(cond: CommutativityCondition,
                      countermodel: dict | None) -> list | None:
    """Rebuild a state-free observation from a prover countermodel's
    repr-string valuation; ``None`` when any repr does not parse back
    into a concrete value (symbolic tokens beyond literals — the loop
    then pivots instead of strengthening)."""
    if not countermodel:
        return None
    try:
        args1 = tuple(ast.literal_eval(a)
                      for a in countermodel.get("args1", ()))
        args2 = tuple(ast.literal_eval(a)
                      for a in countermodel.get("args2", ()))
        r1 = (ast.literal_eval(countermodel["r1"])
              if countermodel.get("r1") is not None else None)
    except (ValueError, SyntaxError):
        return None
    return _observation_slots(cond, args1, args2, r1)


# -- plain-data (de)serialization for the engine cache ------------------------

def synthesis_payload(synth: PairSynthesis) -> dict[str, Any]:
    """A JSON-shaped rendering of one synthesis (ABDUCTION task
    outcome payload; persists verbatim in ``.repro-cache``)."""
    return {
        "m1": synth.m1,
        "m2": synth.m2,
        "conditions": [[c.text, c.passed, c.armed, c.admitted,
                        c.proved, c.countermodel]
                       for c in synth.conditions],
        "checked": synth.checked,
        "pruned": synth.pruned,
        "refuted": synth.refuted,
        "rounds": synth.rounds,
        "cases": synth.cases,
    }


def synthesis_from_payload(payload: dict[str, Any],
                           elapsed: float = 0.0) -> PairSynthesis:
    """Rebuild a synthesis from a cached/worker payload."""
    return PairSynthesis(
        m1=payload["m1"], m2=payload["m2"],
        conditions=tuple(
            CandidateResult(text=text, passed=bool(passed),
                            armed=bool(armed), admitted=int(admitted),
                            violations=0, proved=bool(proved),
                            countermodel=countermodel,
                            origin="abduced")
            for text, passed, armed, admitted, proved, countermodel
            in payload.get("conditions", ())),
        checked=int(payload.get("checked", 0)),
        pruned=int(payload.get("pruned", 0)),
        refuted=int(payload.get("refuted", 0)),
        rounds=int(payload.get("rounds", 0)),
        cases=int(payload.get("cases", 0)), elapsed=elapsed)
