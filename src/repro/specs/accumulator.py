"""Specification of the Accumulator (Chapter 5).

The Accumulator maintains an integer counter with two operations:
``increase(v)`` adds ``v`` to the counter (void), and ``read()`` returns
the current value.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..eval.enumeration import Scope
from ..eval.values import Record
from ..logic.sorts import Sort
from .interface import (DataStructureSpec, Operation, Param, parse_post,
                        parse_pre)

STATE_FIELDS = {"value": Sort.INT}
_OBSERVERS = {"read": ((), Sort.INT)}


def _pre(text: str, params: tuple[Param, ...]):
    return parse_pre(text, STATE_FIELDS, params, _OBSERVERS, None)


def _post(text: str, params: tuple[Param, ...], result: Sort | None):
    return parse_post(text, STATE_FIELDS, params, result, _OBSERVERS, None)


def _states(scope: Scope) -> Iterator[Record]:
    for value in scope.ints:
        yield Record(value=value)


def _arguments(op: Operation, scope: Scope) -> Iterator[tuple[Any, ...]]:
    if op.name == "increase":
        for v in scope.ints:
            yield (v,)
    else:
        yield ()


def make_spec() -> DataStructureSpec:
    """Build the Accumulator specification."""
    increase_params = (Param("v", Sort.INT),)
    operations = {
        "increase": Operation(
            name="increase",
            params=increase_params,
            result_sort=None,
            precondition=_pre("true", increase_params),
            mutator=True,
            postcondition=_post("value = old_value + v",
                                increase_params, None),
        ),
        "read": Operation(
            name="read",
            params=(),
            result_sort=Sort.INT,
            precondition=_pre("true", ()),
            mutator=False,
            postcondition=_post("value = old_value & result = old_value",
                                (), Sort.INT),
        ),
    }
    return DataStructureSpec(
        name="Accumulator",
        state_fields=dict(STATE_FIELDS),
        principal_field=None,
        operations=operations,
        initial_state=Record(value=0),
        invariant=lambda state: isinstance(state["value"], int),
        states=_states,
        arguments=_arguments,
    )
