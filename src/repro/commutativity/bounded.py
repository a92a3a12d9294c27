"""Bounded exhaustive verification of commutativity conditions.

This backend realizes the semantics of the generated testing methods
(Figures 2-2, 3-1) directly: it enumerates every abstract state and
argument tuple within a :class:`~repro.eval.enumeration.Scope`, executes
both operation orders of Figure 4-1, and checks

- **soundness** (Property 1): condition true  => both orders defined,
  same return values, same final abstract state;
- **completeness** (Property 2): condition false => some order undefined,
  or different return values, or different final abstract states.

Within the scope this is a decision procedure; the symbolic backend in
:mod:`repro.solver` extends the guarantee to unbounded base states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple

from ..eval.enumeration import Scope
from ..eval.interpreter import EvalContext
from ..eval.values import Record
from ..logic.compile import compile_term
from ..specs.interface import DataStructureSpec, Operation
from .conditions import CommutativityCondition, pair_layout


class Case(NamedTuple):
    """One first-order execution of ``m1(args1); m2(args2)`` (Figure 4-1).

    A named tuple, not a frozen dataclass: a verification pass builds
    about a hundred thousand of them, and a frozen dataclass's
    ``__init__`` sets each field through ``object.__setattr__``."""

    state: Record
    args1: tuple[Any, ...]
    args2: tuple[Any, ...]
    mid: Record
    fin: Record
    r1: Any
    r2: Any


@dataclass(frozen=True)
class Counterexample:
    """A state/argument combination violating soundness or completeness."""

    direction: str  # "soundness" or "completeness"
    state: Record
    args1: tuple[Any, ...]
    args2: tuple[Any, ...]
    condition_value: bool
    commuted: bool


@dataclass
class CheckResult:
    """Outcome of checking one condition over a scope."""

    condition: CommutativityCondition
    cases: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    #: Wall time of the shard that produced this result.  Not part of
    #: equality: two runs of the same obligation are the same result.
    elapsed: float = field(default=0.0, compare=False)
    #: Served from the engine's content-addressed result cache.  Excluded
    #: from repr/eq so warm and cold reports stay byte-identical.
    cached: bool = field(default=False, repr=False, compare=False)

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        status = "verified" if self.verified else "FAILED"
        cond = self.condition
        return (f"{cond.family} {cond.m1};{cond.m2} [{cond.kind}] "
                f"{status} over {self.cases} cases in {self.elapsed:.2f}s")


def enumerate_cases(spec: DataStructureSpec, op1: Operation, op2: Operation,
                    scope: Scope) -> Iterator[Case]:
    """All first-order executions within scope (premises of Props 1-2)."""
    args1_list = list(spec.arguments(op1, scope))
    args2_list = list(spec.arguments(op2, scope))
    for state in spec.states(scope):
        for args1 in args1_list:
            if not spec.precondition_holds(op1, state, args1):
                continue
            mid, r1 = op1.semantics(state, args1)
            for args2 in args2_list:
                if not spec.precondition_holds(op2, mid, args2):
                    continue
                fin, r2 = op2.semantics(mid, args2)
                yield Case(state, args1, args2, mid, fin, r1, r2)


def executions(spec: DataStructureSpec, op1: Operation, op2: Operation,
               starts: Iterable[tuple[Record, tuple, tuple]]) \
        -> Iterator[Case]:
    """The first-order execution from each ``(state, args1, args2)`` of
    ``starts`` where both operations are defined."""
    for state, args1, args2 in starts:
        if not spec.precondition_holds(op1, state, args1):
            continue
        mid, r1 = op1.semantics(state, args1)
        if not spec.precondition_holds(op2, mid, args2):
            continue
        fin, r2 = op2.semantics(mid, args2)
        yield Case(state, args1, args2, mid, fin, r1, r2)


def commutes(spec: DataStructureSpec, op1: Operation, op2: Operation,
             case: Case) -> bool:
    """Ground-truth semantic commutativity for one case.

    True iff the reverse order is defined (preconditions hold), produces
    the same return values for result-bearing operations, and reaches the
    same abstract final state.
    """
    if not spec.precondition_holds(op2, case.state, case.args2):
        return False
    mid_b, r2_b = op2.semantics(case.state, case.args2)
    if not spec.precondition_holds(op1, mid_b, case.args1):
        return False
    fin_b, r1_b = op1.semantics(mid_b, case.args1)
    if op1.result_sort is not None and case.r1 != r1_b:
        return False
    if op2.result_sort is not None and case.r2 != r2_b:
        return False
    return case.fin == fin_b


def case_layout(op1: Operation, op2: Operation) -> list[str]:
    """The names a condition formula is evaluated over, in slot order:
    the three states, the suffixed parameters, then the results."""
    names = pair_layout(op1, op2, "s1", "s2", "s3")
    if op2.result_sort is not None:
        names.append("r2")
    return names


def case_slots(op1: Operation, op2: Operation, case: Case) -> list[Any]:
    """One value per :func:`case_layout` name."""
    env = [case.state, case.mid, case.fin, *case.args1, *case.args2]
    if op1.result_sort is not None:
        env.append(case.r1)
    if op2.result_sort is not None:
        env.append(case.r2)
    return env


def case_environment(op1: Operation, op2: Operation,
                     case: Case) -> dict[str, Any]:
    """The interpreter's evaluation environment for a condition formula."""
    return dict(zip(case_layout(op1, op2), case_slots(op1, op2, case)))


def check_conditions(spec: DataStructureSpec,
                     conditions: list[CommutativityCondition],
                     scope: Scope,
                     max_counterexamples: int = 3,
                     use_dynamic: bool = False,
                     cases: Iterable[Case] | None = None) \
        -> list[CheckResult]:
    """Check several conditions for the *same* operation pair at once,
    over ``cases`` (the scope's :func:`enumerate_cases` by default; the
    symbolic engine passes its own).

    Sharing the case enumeration across the pair's before/between/after
    conditions triples throughput, which matters for the ArrayList sweep.
    """
    pairs = {(c.m1, c.m2) for c in conditions}
    if len(pairs) != 1:
        raise ValueError("check_conditions expects a single operation pair")
    op1 = conditions[0].op1
    op2 = conditions[0].op2
    ctx = EvalContext(observe=spec.observe)
    names = case_layout(op1, op2)
    formulas = [compile_term(
        c.dynamic_formula if use_dynamic else c.formula, names, ctx)
        for c in conditions]
    results = [CheckResult(condition=c) for c in conditions]
    if cases is None:
        cases = enumerate_cases(spec, op1, op2, scope)
    start = time.perf_counter()
    for case in cases:
        truth = commutes(spec, op1, op2, case)
        env = case_slots(op1, op2, case)
        for formula, result in zip(formulas, results):
            result.cases += 1
            phi = bool(formula(env))
            if phi and not truth:
                direction = "soundness"
            elif not phi and truth:
                direction = "completeness"
            else:
                continue
            if len(result.counterexamples) < max_counterexamples:
                result.counterexamples.append(Counterexample(
                    direction=direction, state=case.state,
                    args1=case.args1, args2=case.args2,
                    condition_value=phi, commuted=truth))
    elapsed = time.perf_counter() - start
    for result in results:
        result.elapsed = elapsed
    return results


def check_condition(spec: DataStructureSpec, cond: CommutativityCondition,
                    scope: Scope, max_counterexamples: int = 3,
                    use_dynamic: bool = False) -> CheckResult:
    """Check a single condition over a scope."""
    return check_conditions(spec, [cond], scope, max_counterexamples,
                            use_dynamic)[0]


def exact_condition_table(spec: DataStructureSpec, op1: Operation,
                          op2: Operation, scope: Scope) \
        -> dict[tuple[Record, tuple[Any, ...], tuple[Any, ...]], bool]:
    """The ground-truth commute relation over the scope, as a table.

    Used by the condition synthesizer and by tests that validate the
    catalog against semantics rather than against formulas.
    """
    table = {}
    for case in enumerate_cases(spec, op1, op2, scope):
        table[(case.state, case.args1, case.args2)] = \
            commutes(spec, op1, op2, case)
    return table
