"""Condition synthesis: derive a sound-and-complete commutativity
condition from the semantics alone.

Given an operation pair, a kind, and a pool of candidate atomic
predicates over that kind's vocabulary, the synthesizer evaluates every
in-scope case (Figure 4-1), records each case's atom valuation and
ground-truth commutativity (the cases and verdicts are read from the
run's transition table, :mod:`repro.commutativity.transitions`), and —
when the atoms suffice to separate commuting from non-commuting cases —
emits a minimized DNF condition.

This is how the repository cross-validates the hand-derived catalog: the
synthesized condition must be logically equivalent (both are sound and
complete of the same kind, Section 4.1.2) to the catalog entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eval.enumeration import Scope
from ..eval.interpreter import EvalContext, evaluate
from ..logic import parse_formula, pretty
from ..logic import terms as t
from ..specs import DataStructureSpec
from .bounded import case_environment
from .conditions import (CommutativityCondition, Kind, allowed_variables,
                         condition_symbols)
from .transitions import transitions


@dataclass
class SynthesisResult:
    """Outcome of a synthesis attempt."""

    formula: t.Term | None
    atoms: tuple[t.Term, ...]
    cases: int
    #: Two cases with identical atom valuations but different ground
    #: truth — evidence the atom pool cannot express the condition.
    ambiguous: tuple | None = None

    @property
    def succeeded(self) -> bool:
        return self.formula is not None

    @property
    def text(self) -> str:
        return pretty(self.formula) if self.formula is not None else "<none>"


def parse_atoms(spec: DataStructureSpec, m1: str, m2: str,
                texts: list[str]) -> list[t.Term]:
    """Parse candidate atoms against the pair's condition vocabulary."""
    op1 = spec.operations[m1]
    op2 = spec.operations[m2]
    table = condition_symbols(spec, op1, op2)
    return [parse_formula(text, table) for text in texts]


def synthesize(spec: DataStructureSpec, m1: str, m2: str, kind: Kind,
               atoms: list[t.Term], scope: Scope | None = None) \
        -> SynthesisResult:
    """Synthesize the sound-and-complete condition over ``atoms``."""
    scope = scope or Scope()
    op1 = spec.operations[m1]
    op2 = spec.operations[m2]
    allowed = allowed_variables(kind, op1, op2)
    from ..logic import free_vars
    for atom in atoms:
        extra = free_vars(atom) - allowed
        if extra:
            raise ValueError(
                f"atom {pretty(atom)} uses {sorted(extra)} outside the "
                f"{kind} vocabulary")
    ctx = EvalContext(observe=spec.observe)
    #: atom valuation -> ground truth
    table: dict[tuple[bool, ...], bool] = {}
    witnesses: dict[tuple[bool, ...], object] = {}
    cases = 0
    for case, truth in transitions(spec).cases(op1, op2, scope):
        cases += 1
        env = case_environment(op1, op2, case)
        valuation = tuple(bool(evaluate(a, env, ctx)) for a in atoms)
        if valuation in table:
            if table[valuation] != truth:
                return SynthesisResult(
                    formula=None, atoms=tuple(atoms), cases=cases,
                    ambiguous=(witnesses[valuation], case))
        else:
            table[valuation] = truth
            witnesses[valuation] = case
    formula = _minimized_dnf(atoms, table)
    return SynthesisResult(formula=formula, atoms=tuple(atoms), cases=cases)


def _minimized_dnf(atoms: list[t.Term],
                   table: dict[tuple[bool, ...], bool]) -> t.Term:
    """Build a DNF over the observed valuations and greedily drop
    literals/terms while the table stays correctly classified."""
    minterms = [v for v, truth in table.items() if truth]
    if not minterms:
        return t.FALSE
    if all(table.values()):
        return t.TRUE

    def classify(terms: list[dict[int, bool]],
                 valuation: tuple[bool, ...]) -> bool:
        return any(all(valuation[i] == want for i, want in term.items())
                   for term in terms)

    def consistent(terms: list[dict[int, bool]]) -> bool:
        return all(classify(terms, v) == truth
                   for v, truth in table.items())

    terms = [dict(enumerate(v)) for v in minterms]
    # Greedy literal elimination.
    for term in terms:
        for index in sorted(term):
            saved = term.pop(index)
            if not consistent(terms):
                term[index] = saved
    # Greedy term elimination (duplicates collapse naturally).
    pruned: list[dict[int, bool]] = []
    for i, term in enumerate(terms):
        trial = pruned + terms[i + 1:]
        if not consistent(trial):
            pruned.append(term)
    terms = pruned

    def literal(index: int, want: bool) -> t.Term:
        return atoms[index] if want else t.neg(atoms[index])

    return t.disj(*(
        t.conj(*(literal(i, want) for i, want in sorted(term.items())))
        for term in terms))


def validate_against_catalog(cond: CommutativityCondition,
                             atoms: list[str],
                             scope: Scope | None = None) -> bool:
    """Synthesize from semantics and confirm the catalog condition is
    pointwise equal over the scope."""
    scope = scope or Scope()
    spec = cond.spec
    parsed = parse_atoms(spec, cond.m1, cond.m2, atoms)
    result = synthesize(spec, cond.m1, cond.m2, cond.kind, parsed, scope)
    if not result.succeeded:
        return False
    ctx = EvalContext(observe=spec.observe)
    op1, op2 = cond.op1, cond.op2
    for case, _ in transitions(spec).cases(op1, op2, scope):
        env = case_environment(op1, op2, case)
        if bool(evaluate(result.formula, env, ctx)) \
                != bool(evaluate(cond.formula, env, ctx)):
            return False
    return True
