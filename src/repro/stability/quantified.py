"""The quantified re-verifier: which candidate conditions survive drift.

The between conditions are verified against a *fixed* environment —
``s2`` is the state immediately after the logged operation ran.  A
runtime admission under drift presents a different environment: ``s1``
is still the saved snapshot and ``r1`` the observed return value, but
``s2`` is whatever the structure has become.  PR 4's drift guard
therefore refuses state-referencing conditions outright; this module
is the constructive replacement.

A candidate formula ``C`` (over the between vocabulary) is judged
**drift-stable** when, with ``s2`` quantified over every in-scope state
the gatekeeper could present (plus the verified no-drift binding — an
over-approximation of the states reachable from the verified
environment):

    for every enumerated execution of ``m1(args1)`` at a root state
    ``u`` observing ``r1``, and every such drifted ``s2``:
    ``C(s1=u, args, r1, s2)`` true  =>  ``m1(args1); m2(args2)``
    semantically commute at **every** in-scope root consistent with
    the observation ``(args1, args2, r1)``.

The right-hand side is deliberately universal: a drifted admission may
be serialized across intermediate operations, so the pair swap no
longer happens at the verified root — the certificate must hold
wherever the reordering lands, and the only runtime facts that survive
the journey are the arguments and the observed return value.  This is
exactly why the sound-and-complete original conditions (truth tied to
one root) generally fail here while arg/result weakenings, footprint
relations, and observer-pinned rewrites pass: their truth forces
commutation at every consistent root.  Roots where the second
operation's precondition fails after the first are outside the case
universe, exactly as in the catalog verification
(:func:`~repro.commutativity.bounded.enumerate_cases`).

As everywhere in this reproduction, "every" means every state and
argument tuple within the :class:`~repro.eval.enumeration.Scope`; the
verdict is a bounded-exhaustive certificate, not an unbounded proof.
The scope must be able to *represent* the refuting cases: compiling
ArrayList verdicts at ``max_seq_len=2`` cannot distinguish
``remove_at(i1); get(i2)`` with ``i1 < i2`` (no list is long enough to
run both) and would bless an unsound weakening — which is why the
stability entry points default to the full paper scope rather than its
smoke-test reduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..commutativity.bounded import Case, commutes
from ..commutativity.conditions import (CommutativityCondition, Kind,
                                        allowed_variables,
                                        condition_symbols,
                                        formula_references_state,
                                        pair_layout)
from ..eval.enumeration import Scope
from ..eval.interpreter import EvalContext, EvalError
from ..logic import ParseError, free_vars, parse_formula
from ..logic.compile import compile_term
from ..specs.interface import DataStructureSpec


@dataclass
class CandidateResult:
    """One candidate's fate under the quantified sweep."""

    text: str
    #: Sound in every quantified environment *and* true in at least one
    #: (a vacuous candidate certifies nothing worth compiling).
    passed: bool
    #: Compiled into the pair's stable condition: passed *and*
    #: arg/result-only.  A state-reading candidate can pass the bounded
    #: sweep yet still be worthless at run time — the runtime evaluates
    #: it against preloaded states far outside the scope, where its
    #: truth is value coincidence all over again (the exact failure
    #: mode PR 4 fixed) — so only state-free survivors, whose simple
    #: argument/return-value relations extrapolate beyond the scope,
    #: are armed.  The others stay in the report as evidence.
    armed: bool = False
    #: Environments in which the candidate evaluated to true.
    admitted: int = 0
    #: Observations under which it admitted although the pair does not
    #: commute at every consistent root (unsound admissions it would
    #: have made).
    violations: int = 0
    #: The symbolic prover discharged this candidate's obligation over
    #: all states (prover runs only).  A proved state-reading
    #: candidate is armed after all — the unbounded certificate is
    #: exactly what the bounded sweep could not give it.
    proved: bool = False
    #: The prover's refutation witness, when it found one
    #: (JSON-shaped; see :func:`repro.prover.native.prove_pair`).
    countermodel: dict | None = None
    #: Where the candidate came from: ``"candidate"`` (projector /
    #: footprint pool) or ``"abduced"`` (the CEGIS loop of
    #: :mod:`repro.abduction`).  Armed abduced candidates are what
    #: promote a pair to the ``synthesized`` tier.
    origin: str = "candidate"
    #: Violating observations ``(args1, args2, r1)`` recorded when the
    #: sweep ran with ``witness_limit > 0`` — the abduction loop's
    #: counterexample store.  Transient: never serialized into task
    #: payloads (see :func:`repro.stability.compiler.pair_payload`).
    witnesses: tuple = field(default=(), compare=False)


@dataclass
class PairStability:
    """The compiled verdict for one operation pair's between condition."""

    m1: str
    m2: str
    #: ``"stable"`` — the original condition is arg/result-only and
    #: needs no guard; ``"proved"`` — a weakening was compiled and
    #: every armed candidate carries a symbolic proof over all states
    #: (prover runs only); ``"synthesized"`` — at least one armed
    #: candidate was abduced by the CEGIS loop (abduction runs only);
    #: ``"weakened"`` — a drift-stable weakening was compiled
    #: from the bounded sweep; ``"fragile"`` — no candidate survived,
    #: the runtime keeps its conservative fallback.
    verdict: str
    #: The drift-stable formula ('weakened' verdicts only).
    stable_text: str | None = None
    candidates: tuple[CandidateResult, ...] = ()
    cases: int = 0
    elapsed: float = field(default=0.0, compare=False)
    #: Lattice-walk statistics when the abduction loop ran for this
    #: pair (abduction runs): checked / pruned / refuted candidate counts
    #: and the number of frontier rounds — the synthesis trace the CLI
    #: and the README example surface.
    synthesis: dict | None = None

    @property
    def pair_label(self) -> str:
        return f"{self.m1};{self.m2}"


def _parse_candidates(spec: DataStructureSpec,
                      cond: CommutativityCondition,
                      texts: list[str]):
    """Parse candidate texts against the pair's between vocabulary;
    malformed or out-of-vocabulary candidates are silently dropped
    (they are machine-generated guesses, not user input)."""
    table = condition_symbols(spec, cond.op1, cond.op2)
    allowed = allowed_variables(Kind.BETWEEN, cond.op1, cond.op2)
    parsed = []
    seen: set[str] = set()
    for text in texts:
        if text in seen:
            continue
        seen.add(text)
        try:
            term = parse_formula(text, table)
        except ParseError:
            continue
        if free_vars(term) - allowed:
            continue
        parsed.append((text, term))
    return parsed


def check_pair(spec: DataStructureSpec, cond: CommutativityCondition,
               candidate_texts: list[str], scope: Scope,
               witness_limit: int = 0) -> PairStability:
    """Run the quantified sweep for one drift-fragile between condition.

    One pass over the pair's case enumeration serves every candidate
    (the sharing trick of
    :func:`~repro.commutativity.bounded.check_conditions`): the pass
    records, per observation ``(args1, args2, r1)``, whether the pair
    commutes at *every* consistent root, and per candidate the
    observations under which it would admit; a candidate survives iff
    its admissions never meet a non-universally-commuting observation.

    ``witness_limit > 0`` additionally records, per failed candidate,
    up to that many violating observations on
    :attr:`CandidateResult.witnesses` — the refuting traces the
    abduction loop strengthens against.
    """
    start = time.perf_counter()
    op1, op2 = cond.op1, cond.op2
    ctx = EvalContext(observe=spec.observe)
    parsed = _parse_candidates(spec, cond, candidate_texts)
    # Slot 1 (``s2``) is rebound under drift.
    names = pair_layout(op1, op2, "s1", "s2")
    compiled = [(text, compile_term(term, names, ctx),
                 "s2" in free_vars(term),
                 not formula_references_state(term))
                for text, term in parsed]
    results = {text: CandidateResult(text=text, passed=False)
               for text, _, _, _ in compiled}
    state_free = {text: free for text, _, _, free in compiled}
    args2_list = list(spec.arguments(op2, scope))
    #: Drifted ``s2`` bindings: every invariant-satisfying in-scope
    #: state (reachability over-approximated — see module docstring),
    #: pre-filtered per argument tuple to the states the runtime could
    #: actually present (it evaluates just before executing
    #: ``m2(args2)``, so the precondition holds at the current state).
    #: Only built when some candidate actually reads ``s2``.
    drifted_for: dict[tuple, list] = {}
    if any(wants_s2 for _, _, wants_s2, _ in compiled):
        drifted = [state for state in spec.states(scope)
                   if spec.invariant(state)]
        drifted_for = {
            args2: [state for state in drifted
                    if spec.precondition_holds(op2, state, args2)]
            for args2 in args2_list}
    always_commutes: dict[tuple, bool] = {}
    admitted_under: dict[str, set[tuple]] = {text: set()
                                             for text in results}
    cases = 0

    def admit(text: str, obs: tuple) -> None:
        results[text].admitted += 1
        admitted_under[text].add(obs)

    args1_list = list(spec.arguments(op1, scope))
    for state in spec.states(scope):
        for args1 in args1_list:
            if not spec.precondition_holds(op1, state, args1):
                continue
            mid, r1 = op1.semantics(state, args1)
            result = (r1,) if op1.result_sort is not None else ()
            for args2 in args2_list:
                if not spec.precondition_holds(op2, mid, args2):
                    continue
                obs = (args1, args2,
                       r1 if op1.result_sort is not None else None)
                cases += 1
                fin, r2 = op2.semantics(mid, args2)
                case = Case(state, args1, args2, mid, fin, r1, r2)
                truth = commutes(spec, op1, op2, case)
                always_commutes[obs] = \
                    always_commutes.get(obs, True) and truth
                env = [state, mid, *args1, *args2, *result]
                for text, formula, wants_s2, _ in compiled:
                    if not wants_s2:
                        if _holds(formula, env):
                            admit(text, obs)
                        continue
                    # Quantify the drifted binding; ``mid`` (the
                    # verified no-drift environment) is always included.
                    drift_env = env.copy()
                    for drift_state in (mid, *drifted_for[args2]):
                        drift_env[1] = drift_state
                        if _holds(formula, drift_env):
                            admit(text, obs)
    survivors: list[str] = []
    for text, result in results.items():
        violating = [obs for obs in admitted_under[text]
                     if not always_commutes.get(obs, False)]
        result.violations = len(violating)
        if witness_limit > 0 and violating:
            result.witnesses = tuple(sorted(violating,
                                            key=repr)[:witness_limit])
        result.passed = result.violations == 0 and result.admitted > 0
        result.armed = result.passed and state_free[text]
        if result.armed:
            survivors.append(text)
    stable_text = _disjoin(survivors)
    return PairStability(
        m1=cond.m1, m2=cond.m2,
        verdict="weakened" if stable_text is not None else "fragile",
        stable_text=stable_text,
        candidates=tuple(results[text] for text, _, _, _ in compiled),
        cases=cases, elapsed=time.perf_counter() - start)


def _holds(formula, env) -> bool:
    """Evaluate a compiled candidate; unevaluable counts as admitting
    (the worst case for the candidate — at runtime an ``EvalError``
    falls through to the conservative path, but certification must
    cover every environment it could have admitted in)."""
    try:
        return bool(formula(env))
    except EvalError:
        return True


def _disjoin(texts: list[str]) -> str | None:
    """The disjunction of surviving candidates (each implies
    commutation at every consistent root on its own, so their
    disjunction does too)."""
    if not texts:
        return None
    if len(texts) == 1:
        return texts[0]
    return " | ".join(f"({text})" for text in texts)
