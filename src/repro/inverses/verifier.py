"""Inverse testing methods and their verification (Sections 2.6, 3.3, 4.2).

Property 3: if the original operation's precondition holds, then after it
executes (1) the inverse's precondition holds and (2) executing the
inverse restores the initial abstract state.

The bounded backend checks this exhaustively over a scope; the generated
method can render itself in the paper's surface style (Figures 2-3/2-4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..eval.enumeration import Scope
from ..eval.values import Record
from ..specs import DataStructureSpec
from .catalog import Guard, InverseSpec


def _registry(registry):
    from ..api import resolve_registry
    return resolve_registry(registry)


class InverseError(ValueError):
    """The inverse's precondition failed where Property 3 requires it."""


def apply_inverse(spec: DataStructureSpec, inverse: InverseSpec,
                  state: Record, params: dict[str, Any],
                  result: Any) -> Record:
    """Run the undo program on ``state``; raises on precondition failure."""
    for name, args in inverse.calls(params, result):
        op = spec.operations[name]
        if not spec.precondition_holds(op, state, args):
            raise InverseError(
                f"inverse call {name}({', '.join(map(repr, args))}) "
                f"precondition failed")
        state, _ = op.semantics(state, args)
    return state


@dataclass(frozen=True)
class InverseCounterexample:
    state: Record
    args: tuple[Any, ...]
    restored: Record | None
    reason: str


@dataclass
class InverseCheckResult:
    """Outcome of checking one inverse testing method over a scope."""

    inverse: InverseSpec
    cases: int = 0
    counterexamples: list[InverseCounterexample] = field(default_factory=list)
    #: Wall time of the shard that produced this result.  Not part of
    #: equality: two runs of the same obligation are the same result.
    elapsed: float = field(default=0.0, compare=False)
    #: Served from the engine's content-addressed result cache.  Excluded
    #: from repr/eq so warm and cold results stay byte-identical.
    cached: bool = field(default=False, repr=False, compare=False)

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        status = "verified" if self.verified else "FAILED"
        return (f"{self.inverse.family}.{self.inverse.op} inverse "
                f"[{self.inverse.render()}] {status} over "
                f"{self.cases} cases in {self.elapsed:.2f}s")


def check_inverse(family: str, inverse: InverseSpec,
                  scope: Scope | None = None,
                  max_counterexamples: int = 3,
                  registry=None) -> InverseCheckResult:
    """Exhaustively check Property 3 for one inverse within a scope."""
    scope = scope or Scope()
    spec = _registry(registry).spec(family)
    op = spec.operations[inverse.op]
    result = InverseCheckResult(inverse=inverse)
    start = time.perf_counter()
    for state in spec.states(scope):
        for args in spec.arguments(op, scope):
            if not spec.precondition_holds(op, state, args):
                continue
            result.cases += 1
            mid, ret = op.semantics(state, args)
            params = {p.name: v for p, v in zip(op.params, args)}
            try:
                restored = apply_inverse(spec, inverse, mid, params, ret)
            except InverseError as exc:
                if len(result.counterexamples) < max_counterexamples:
                    result.counterexamples.append(InverseCounterexample(
                        state, args, None, str(exc)))
                continue
            if restored != state:
                if len(result.counterexamples) < max_counterexamples:
                    result.counterexamples.append(InverseCounterexample(
                        state, args, restored,
                        "final abstract state differs from initial"))
    result.elapsed = time.perf_counter() - start
    return result


def check_all_inverses(scope: Scope | None = None, registry=None,
                       jobs: int | None = None, cache=False) \
        -> list[InverseCheckResult]:
    """Check every registered inverse testing method (Table 5.10's eight
    for the default registry) through the sharded engine: one task per
    inverse, optionally parallel (``jobs``) and cache-served (``cache``)."""
    from ..engine import run_inverse_verification
    return run_inverse_verification(scope, registry=registry, jobs=jobs,
                                    cache=cache)


@dataclass
class InverseTestingMethod:
    """The generated inverse testing method (Figure 3-2)."""

    family: str
    inverse: InverseSpec
    #: Resolved through the default registry when not supplied.
    spec: DataStructureSpec | None = None

    @property
    def name(self) -> str:
        return f"{self.inverse.op.rstrip('_')}0"

    def render_java(self) -> str:
        """Render in the paper's surface style (Figures 2-3/2-4)."""
        spec = self.spec or _registry(None).spec(self.family)
        op = spec.operations[self.inverse.op]
        java_types = {"obj": "Object", "int": "int", "bool": "boolean"}
        params = ", ".join(
            f"{java_types[p.sort.value]} {p.name}" for p in op.params)
        args = ", ".join(p.name for p in op.params)
        state_eq = " & ".join(
            f"s..{f} = s..(old {f})" for f in spec.state_fields)
        frame = ", ".join(f'"s..{f}"' for f in spec.state_fields)
        call = f"s.{op.name.rstrip('_')}({args})"
        if op.result_sort is None:
            first = f"    {call};"
        else:
            rtype = java_types[op.result_sort.value]
            first = f"    {rtype} r = {call};"
        inverse = self.inverse
        then_text = "; ".join(c.render("s") for c in inverse.then) + ";"
        if inverse.guard is Guard.NONE and not inverse.els:
            undo = f"    {then_text}"
        else:
            test = {Guard.NONE: "true", Guard.RESULT_TRUE: "r",
                    Guard.RESULT_NOT_NULL: "r != null"}[inverse.guard]
            undo = f"    if ({test}) {{ {then_text} }}"
        if inverse.els:
            els_text = "; ".join(c.render("s") for c in inverse.els) + ";"
            undo += f" else {{ {els_text} }}"
        pre_parts = ["s ~= null"]
        for p in op.params:
            if p.sort.value == "obj":
                pre_parts.append(f"{p.name} ~= null")
        return "\n".join([
            f"void {self.name}({spec.name} s"
            + (f", {params})" if params else ")"),
            f'/*: requires "{" & ".join(pre_parts)}"',
            f"    modifies {frame}",
            '    ensures "True" */',
            "{",
            first,
            undo,
            f'    /*: assert "{state_eq}" */',
            "}",
        ])


def generate_inverse_methods(registry=None) -> list[InverseTestingMethod]:
    """The generated inverse testing methods (the paper's eight for the
    default registry)."""
    registry = _registry(registry)
    return [InverseTestingMethod(family, inv, registry.spec(family))
            for family in registry.families()
            for inv in registry.inverses(family)]
