"""The abduction showcase structure: a user-registered Register with
**no shard router and no projector hit**.

A single overwrite cell — ``write(v)`` returns the overwritten value,
``read()`` the current one — whose sound-and-complete between
conditions all read ``s1``.  Every machinery rung before abduction is
structurally blind to it:

- the **projector** finds no arg/result-only disjunct (the conditions
  are conjunctions through a state read);
- the **footprint analyzer** contributes nothing (no registered shard
  router, so no region-logic license for argument relations);
- the **prover** classifies the pair obligations ``unsupported`` (a
  custom family outside the symbolic theory fragment);
- at run time, the conservative fallback's router oracle — absent —
  admits *nothing* under drift: every drifted pair check conflicts.

The CEGIS loop closes the gap from the atom alphabet alone, e.g.
``write;write`` arms ``(v1 = v2) & (v2 = r1)`` (writing the value that
is already there, twice) and ``write;read`` arms ``v1 = r1`` — each
atom singly refuted by a bounded witness, the conjunction synthesized
from the strengthening step.  The bench gate, the abduction tests, and
``examples/abduced_custom_structure.py`` all register this structure;
it lives in the package (not the test tree) so all three share one
definition.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..eval import Record
from ..eval.enumeration import Scope
from ..logic.sorts import Sort
from ..specs.interface import (DataStructureSpec, Operation, Param,
                               parse_post, parse_pre)

#: The family name the demo registers under.
DEMO_FAMILY = "RegisterCell"

_STATE_FIELDS = {"value": Sort.OBJ}

#: Sound-and-complete conditions (valid for every kind: they only
#: mention before-vocabulary variables) — every one drift-fragile.
DEMO_CONDITIONS = {
    ("write", "write"): "v1 = v2 & s1.value = v1",
    ("write", "read"): "s1.value = v1",
    ("read", "write"): "s1.value = v2",
    ("read", "read"): "true",
}


def _states(scope: Scope) -> Iterator[Record]:
    for v in scope.objects:
        yield Record(value=v)


def _arguments(op: Operation, scope: Scope) -> Iterator[tuple[Any, ...]]:
    if op.params:
        for v in scope.objects:
            yield (v,)
    else:
        yield ()


def make_demo_spec() -> DataStructureSpec:
    params = (Param("v", Sort.OBJ),)
    operations = {
        "write": Operation(
            name="write", params=params, result_sort=Sort.OBJ,
            precondition=parse_pre("v ~= null", _STATE_FIELDS, params,
                                   {}, None),
            mutator=True,
            postcondition=parse_post("value = v & result = old_value",
                                     _STATE_FIELDS, params, Sort.OBJ,
                                     {}, None)),
        "read": Operation(
            name="read", params=(), result_sort=Sort.OBJ,
            precondition=parse_pre("true", _STATE_FIELDS, (), {}, None),
            mutator=False,
            postcondition=parse_post("value = old_value & result = "
                                     "old_value", _STATE_FIELDS, (),
                                     Sort.OBJ, {}, None)),
    }
    return DataStructureSpec(
        name=DEMO_FAMILY, state_fields=dict(_STATE_FIELDS),
        principal_field=None, operations=operations,
        initial_state=Record(value="init"),
        invariant=lambda state: True,
        states=_states, arguments=_arguments)


class RegisterCellImpl:
    """The concrete cell: one overwrite slot with the abstraction
    function the serial-replay validator compares through."""

    def __init__(self) -> None:
        self._value: Any = "init"

    def write(self, v: Any) -> Any:
        old = self._value
        self._value = v
        return old

    def read(self) -> Any:
        return self._value

    def abstract_state(self) -> Record:
        return Record(value=self._value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegisterCell({self._value!r})"


def _build_conditions(spec: DataStructureSpec):
    from ..commutativity.conditions import CommutativityCondition, Kind
    return [CommutativityCondition(family=DEMO_FAMILY, m1=m1, m2=m2,
                                   kind=kind, text=text, spec=spec)
            for (m1, m2), text in DEMO_CONDITIONS.items()
            for kind in Kind]


def register_demo_structure(registry, name: str = DEMO_FAMILY) -> str:
    """Register the demo cell (spec + conditions + implementation +
    inverse; **no** shard router) on ``registry``; returns the
    registered name.  Idempotent: a registry that already has the cell
    (the bench gate and the tests share registries) is left alone."""
    from ..inverses import Arg, Guard, InverseCall, InverseSpec
    if name in registry.names():
        return name
    registry.register_spec(name, make_demo_spec,
                           implementation=RegisterCellImpl)
    registry.register_conditions(name, _build_conditions)
    registry.register_inverses(name, (InverseSpec(
        family=DEMO_FAMILY, op="write", guard=Guard.NONE,
        then=(InverseCall("write", (Arg.result(),)),)),))
    return name


def make_demo_registry():
    """A fresh registry: the six built-ins plus the demo cell."""
    from ..api import Registry
    registry = Registry.with_builtins()
    register_demo_structure(registry)
    return registry
