"""Bounded exhaustive verification of commutativity conditions.

This backend realizes the semantics of the generated testing methods
(Figures 2-2, 3-1) directly: it enumerates every abstract state and
argument tuple within a :class:`~repro.eval.enumeration.Scope`, runs
both operation orders of Figure 4-1, and checks

- **soundness** (Property 1): condition true  => both orders defined,
  same return values, same final abstract state;
- **completeness** (Property 2): condition false => some order undefined,
  or different return values, or different final abstract states.

Each operation step is run once per engine run and then looked up in
the run's :class:`~repro.commutativity.transitions.TransitionTable`.
Each operation pair gets one generated function per run
(:func:`pair_loop`, written by :func:`write_pair_loop` with the formula
compiler's :func:`~repro.logic.compile.lower_body`): it walks the
table in the enumeration order, decides each case's reverse order from
two rows, and evaluates every distinct formula of the pair inline, over
locals bound where the loops fix them (``s1`` and the fields the
formulas read of it per state, and so on).  The symbolic engine's cases
run the same body under a flat loop.  Within the scope this is a
decision procedure; the symbolic backend in :mod:`repro.solver`
extends the guarantee to unbounded base states.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..eval.enumeration import Scope
from ..eval.interpreter import EvalContext
from ..eval.values import Record
from ..logic import terms as t
from ..logic.compile import lower_body
from ..specs.interface import DataStructureSpec, Operation
from .conditions import CommutativityCondition, pair_layout
from .transitions import Case, TransitionTable, transitions


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
    for case, _ in transitions(spec).cases(op1, op2, scope):
        yield case


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
    symbolic engine passes its own, which are executed here).

    The pair's before/between/after conditions share one pass over the
    cases, in one function generated for the pair (:func:`pair_loop`):
    it walks the run's transition table, decides each case's reverse
    order from two rows, and evaluates each distinct formula once per
    case.  Over ``cases`` the same body runs under a flat loop.
    """
    pairs = {(c.m1, c.m2) for c in conditions}
    if len(pairs) != 1:
        raise ValueError("check_conditions expects a single operation pair")
    op1 = conditions[0].op1
    op2 = conditions[0].op2
    #: Each distinct formula once; ``slots[i]`` is condition i's.
    distinct: dict = {}
    slots = [distinct.setdefault(
        c.dynamic_formula if use_dynamic else c.formula, len(distinct))
        for c in conditions]
    results = [CheckResult(condition=c) for c in conditions]
    #: Per distinct formula, the counterexample lists it fills.
    found: list[list] = [[] for _ in distinct]
    for slot, result in zip(slots, results):
        found[slot].append(result.counterexamples)

    def miss(slot: int, phi: bool, truth: bool, state: Record,
             args1: tuple, args2: tuple) -> None:
        for counterexamples in found[slot]:
            if len(counterexamples) < max_counterexamples:
                counterexamples.append(Counterexample(
                    direction="soundness" if phi else "completeness",
                    state=state, args1=args1, args2=args2,
                    condition_value=phi, commuted=truth))

    table = transitions(spec)
    loop = pair_loop(table, op1, op2, tuple(distinct), walk=cases is None)
    start = time.perf_counter()
    if cases is None:
        count = loop(table.enumeration(scope),
                     [(row, row.args) for row in table.rows(op1, scope)],
                     [(row, row.args) for row in table.rows(op2, scope)],
                     table.states, miss)
    else:
        count = loop(((case, commutes(spec, op1, op2, case))
                      for case in cases), miss)
    elapsed = time.perf_counter() - start
    for result in results:
        result.cases = count
        result.elapsed = elapsed
    return results


def pair_loop(table: TransitionTable, op1: Operation, op2: Operation,
              terms: tuple[t.Term, ...], walk: bool = True) -> Callable:
    """The run's checking function for ``op1; op2`` and ``terms``,
    compiled on first use and kept by ``table`` for its run.

    With ``walk`` it is ``pair(enumeration, rows1, rows2, states,
    miss)``, over the table's enumerated states and each operation's
    ``(row, args)``; without, ``pair(judged, miss)``, over ``(case,
    commutes)`` pairs.  Either returns the number of cases and calls
    ``miss(i, value, commutes, state, args1, args2)`` where term ``i``'s
    truth value is not the case's verdict."""
    key = (op1.name, op2.name, walk, terms)
    loop = table.loops.get(key)
    if loop is None:
        source, namespace = write_pair_loop(
            op1, op2, terms, EvalContext(observe=table.spec.observe),
            tuple(table.spec.state_fields), walk)
        exec(compile(source, "<pair>", "exec", dont_inherit=True),
             namespace)
        # Popped, so the function is not in a cycle with its globals
        # and dies with the table.
        loop = table.loops[key] = namespace.pop("pair")
    return loop


def write_pair_loop(op1: Operation, op2: Operation,
                    terms: Sequence[t.Term], ctx: EvalContext,
                    state_fields: Sequence[str], walk: bool = True) \
        -> tuple[str, dict]:
    """The source of :func:`pair_loop`'s function and the names it
    reads.  Each layout name (:func:`case_layout`) the terms need is a
    local, bound where the loops fix it: ``s1`` and the fields the terms
    read of it per state; the first arguments, ``r1`` and ``s2`` per
    first step; the second arguments, ``r2`` and ``s3`` per case."""
    names = case_layout(op1, op2)
    body = lower_body(terms, names,
                      {name: state_fields for name in ("s1", "s2", "s3")
                       if names.count(name) == 1}, ctx)
    s2, s3 = ("states[mid]", "states[fin]") if walk else ("mid", "fin")
    #: Where each layout slot is fixed, and its value there.
    sources = [(0, "state"), (1, s2), (2, s3),
               *((1, f"args1[{i}]") for i in range(len(op1.params))),
               *((2, f"args2[{i}]") for i in range(len(op2.params)))]
    if op1.result_sort is not None:
        sources.append((1, "r1"))
    if op2.result_sort is not None:
        sources.append((2, "r2"))
    reads = " ".join([*body.values, *(read for fields in body.fields.values()
                                      for _, read in fields)])
    slot = {name: i for i, name in enumerate(names)}  # the last one
    levels: list[list[str]] = [[], [], []]
    for name, local in body.locals.items():
        if not re.search(rf"\b{local}\b", reads):
            continue
        level, source = sources[slot[name]]
        levels[level].append(f"{local} = {source}")
        levels[level] += [f"{field} = {read}"
                          for field, read in body.fields.get(name, ())]
    judge = []
    for i, value in enumerate(body.values):
        judge += [f"phi = True if ({value}) else False",
                  "if phi != truth:",
                  f"    miss({i}, phi, truth, state, args1, args2)"]
    if walk:
        same = "".join([
            " and r1 == front[1]" if op1.result_sort is not None else "",
            " and r2 == back[1]" if op2.result_sort is not None else "",
            " and fin == front[0]"])
        lines = ["def pair(enumeration, rows1, rows2, states, miss):",
                 "    count = 0",
                 "    for state, sid in enumeration:",
                 *_indent(levels[0], 2),
                 "        for row1, args1 in rows1:",
                 "            step = row1[sid]",
                 "            if step is None:",
                 "                continue",
                 "            mid, r1 = step",
                 *_indent(levels[1], 3),
                 "            for row2, args2 in rows2:",
                 "                step = row2[mid]",
                 "                if step is None:",
                 "                    continue",
                 "                fin, r2 = step",
                 "                count += 1",
                 *_indent(levels[2], 4),
                 "                truth = ((back := row2[sid]) is not None"
                 f" and (front := row1[back[0]]) is not None{same})",
                 *_indent(judge, 4)]
    else:
        lines = ["def pair(judged, miss):",
                 "    count = 0",
                 "    for (state, args1, args2, mid, fin, r1, r2), truth \\",
                 "            in judged:",
                 "        count += 1",
                 *_indent([*levels[0], *levels[1], *levels[2], *judge], 2)]
    lines.append("    return count")
    return body.helpers + "\n".join(lines) + "\n", body.namespace


def _indent(lines: list[str], depth: int) -> list[str]:
    return ["    " * depth + line for line in lines]


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
    return {(case.state, case.args1, case.args2): truth
            for case, truth in transitions(spec).cases(op1, op2, scope)}
