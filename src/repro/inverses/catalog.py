"""The inverse-operation catalog (Table 5.10).

Every operation that changes a data structure's abstract state has a
specified inverse that restores the original *abstract* state (the
concrete state may differ — e.g. a re-inserted list element may land in
a different position, Section 1.3).  Inverses use the original
operation's return value to carry the information they need: ``put``'s
previous value, ``remove_at``'s removed element, and so on.

The undo program is a tiny guarded-call language (mirroring the inverse
testing methods of Figures 2-3/2-4): an optional guard on the return
value selects between a *then* call sequence and an *else* sequence.
:meth:`InverseSpec.calls` is its one interpreter: the verifier applies
its calls to abstract states (Property 3), and the runtime resolves each
executed mutator's calls once and applies them on abort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping


class ArgKind(enum.Enum):
    """How an inverse-call argument is obtained."""

    PARAM = "param"          # a parameter of the original operation
    RESULT = "result"        # the original operation's return value
    NEG_PARAM = "neg_param"  # arithmetic negation of a parameter


@dataclass(frozen=True)
class Arg:
    kind: ArgKind
    name: str | None = None

    @staticmethod
    def param(name: str) -> "Arg":
        return Arg(ArgKind.PARAM, name)

    @staticmethod
    def result() -> "Arg":
        return Arg(ArgKind.RESULT)

    @staticmethod
    def neg_param(name: str) -> "Arg":
        return Arg(ArgKind.NEG_PARAM, name)

    def value(self, params: Mapping[str, Any], result: Any) -> Any:
        """The argument's value for one execution of the original
        operation: its parameters by name and its return value."""
        if self.kind is ArgKind.PARAM:
            return params[self.name]
        if self.kind is ArgKind.NEG_PARAM:
            return -params[self.name]
        return result


class Guard(enum.Enum):
    """Guard on the original operation's return value."""

    NONE = "none"                    # unconditional
    RESULT_TRUE = "result"           # if (r) { ... }
    RESULT_NOT_NULL = "result_null"  # if (r != null) { ... } else { ... }


@dataclass(frozen=True)
class InverseCall:
    op: str
    args: tuple[Arg, ...]

    def render(self, receiver: str = "s") -> str:
        parts = []
        for arg in self.args:
            if arg.kind is ArgKind.PARAM:
                parts.append(arg.name)
            elif arg.kind is ArgKind.NEG_PARAM:
                parts.append(f"-{arg.name}")
            else:
                parts.append("r")
        return f"{receiver}.{self.op.rstrip('_')}({', '.join(parts)})"


@dataclass(frozen=True)
class InverseSpec:
    """One row of Table 5.10."""

    family: str
    op: str
    guard: Guard
    then: tuple[InverseCall, ...]
    els: tuple[InverseCall, ...] = field(default=())

    def calls(self, params: Mapping[str, Any],
              result: Any) -> tuple[tuple[str, tuple[Any, ...]], ...]:
        """The undo program run for one execution of the original
        operation: the *then* branch when the guard holds on ``result``
        and the *else* branch otherwise, each call's arguments bound
        from ``params`` (parameter name -> value) and ``result``."""
        if self.guard is Guard.NONE:
            holds = True
        elif self.guard is Guard.RESULT_TRUE:
            holds = bool(result)
        else:
            holds = result is not None
        return tuple(
            (call.op, tuple(arg.value(params, result) for arg in call.args))
            for call in (self.then if holds else self.els))

    def render(self, receiver: str = "s2") -> str:
        """Render the inverse column of Table 5.10."""
        text = "; ".join(c.render(receiver) for c in self.then)
        if self.guard is not Guard.NONE or self.els:
            test = {Guard.NONE: "true", Guard.RESULT_TRUE: "r = true",
                    Guard.RESULT_NOT_NULL: "r ~= null"}[self.guard]
            text = f"if {test} then {text}"
        if self.els:
            text += " else " + "; ".join(c.render(receiver)
                                         for c in self.els)
        return text


@dataclass(frozen=True)
class NoInverse:
    """The undo of a mutator whose family registers no inverse for it:
    the undo guard refuses every admission against the execution, and
    a rollback that reaches it raises :class:`~repro.api.UnknownNameError`
    naming the family and the operation (iterating it, as a rollback
    iterates an undo's calls, raises)."""

    family: str
    op: str

    def __iter__(self):
        from ..api.errors import UnknownNameError
        raise UnknownNameError(f"inverse for {self.family} operation",
                               self.op)


#: The eight inverse operations of Table 5.10.
INVERSES: tuple[InverseSpec, ...] = (
    InverseSpec(
        family="Accumulator", op="increase", guard=Guard.NONE,
        then=(InverseCall("increase", (Arg.neg_param("v"),)),)),
    InverseSpec(
        family="Set", op="add", guard=Guard.RESULT_TRUE,
        then=(InverseCall("remove", (Arg.param("v"),)),)),
    InverseSpec(
        family="Set", op="remove", guard=Guard.RESULT_TRUE,
        then=(InverseCall("add", (Arg.param("v"),)),)),
    InverseSpec(
        family="Map", op="put", guard=Guard.RESULT_NOT_NULL,
        then=(InverseCall("put", (Arg.param("k"), Arg.result())),),
        els=(InverseCall("remove", (Arg.param("k"),)),)),
    InverseSpec(
        family="Map", op="remove", guard=Guard.RESULT_NOT_NULL,
        then=(InverseCall("put", (Arg.param("k"), Arg.result())),)),
    InverseSpec(
        family="ArrayList", op="add_at", guard=Guard.NONE,
        then=(InverseCall("remove_at", (Arg.param("i"),)),)),
    InverseSpec(
        family="ArrayList", op="remove_at", guard=Guard.NONE,
        then=(InverseCall("add_at", (Arg.param("i"), Arg.result())),)),
    InverseSpec(
        family="ArrayList", op="set", guard=Guard.NONE,
        then=(InverseCall("set", (Arg.param("i"), Arg.result())),)),
)


def inverses_for(family: str) -> list[InverseSpec]:
    """Inverse specs of one specification family (historical contract:
    an unknown name has no inverses rather than being an error)."""
    from ..api import DEFAULT_REGISTRY, UnknownNameError
    try:
        return DEFAULT_REGISTRY.inverses(family)
    except UnknownNameError:
        return []


def inverse_for(family: str, op: str) -> InverseSpec:
    """The inverse spec for one operation (return-value variant name)."""
    from ..api import DEFAULT_REGISTRY
    return DEFAULT_REGISTRY.inverse(family, op)
