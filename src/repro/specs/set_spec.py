"""Specification of the set interface shared by ListSet and HashSet.

This is Figure 2-1 of the paper: abstract state ``contents`` (a set of
objects) and ``size``; operations ``add``, ``contains``, ``remove``,
``size``.  Per Chapter 5, the update operations come in two variants —
one whose client records the return value (``add``, ``remove``) and one
whose client discards it (``add_``, ``remove_``) — giving six operations
and hence 3 * 6^2 = 108 commutativity conditions per data structure.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..eval.enumeration import Scope, subsets
from ..eval.values import Record
from ..logic.sorts import Sort
from .interface import (DataStructureSpec, Operation, Param, parse_post,
                        parse_pre)

STATE_FIELDS = {"contents": Sort.SET, "size": Sort.INT}
PRINCIPAL = "contents"
_OBSERVERS = {
    "contains": ((Sort.OBJ,), Sort.BOOL),
    "size": ((), Sort.INT),
}


def _pre(text: str, params: tuple[Param, ...]):
    return parse_pre(text, STATE_FIELDS, params, _OBSERVERS, PRINCIPAL)


def _post(text: str, params: tuple[Param, ...], result: Sort | None):
    return parse_post(text, STATE_FIELDS, params, result, _OBSERVERS,
                      PRINCIPAL)


def _states(scope: Scope) -> Iterator[Record]:
    for contents in subsets(scope.objects):
        yield Record(contents=contents, size=len(contents))


def _arguments(op: Operation, scope: Scope) -> Iterator[tuple[Any, ...]]:
    if op.params:
        for obj in scope.objects:
            yield (obj,)
    else:
        yield ()


_V = (Param("v", Sort.OBJ),)

_ADD_POST = (
    "(v ~: old_contents --> contents = old_contents Un {v} & "
    "size = old_size + 1 & result) & "
    "(v : old_contents --> contents = old_contents & "
    "size = old_size & ~result)"
)
_REMOVE_POST = (
    "(v : old_contents --> contents = old_contents - {v} & "
    "size = old_size - 1 & result) & "
    "(v ~: old_contents --> contents = old_contents & "
    "size = old_size & ~result)"
)


def make_spec(name: str = "Set") -> DataStructureSpec:
    """Build the set specification (shared by ListSet and HashSet)."""
    operations = {
        "add": Operation(
            name="add", params=_V, result_sort=Sort.BOOL,
            precondition=_pre("v ~= null", _V),
            mutator=True,
            postcondition=_post(_ADD_POST, _V, Sort.BOOL),
        ),
        "add_": Operation(
            name="add_", params=_V, result_sort=None,
            precondition=_pre("v ~= null", _V),
            mutator=True,
            base_name="add",
        ),
        "contains": Operation(
            name="contains", params=_V, result_sort=Sort.BOOL,
            precondition=_pre("v ~= null", _V),
            mutator=False,
            postcondition=_post(
                "contents = old_contents & size = old_size & "
                "(result <-> v : old_contents)", _V, Sort.BOOL),
        ),
        "remove": Operation(
            name="remove", params=_V, result_sort=Sort.BOOL,
            precondition=_pre("v ~= null", _V),
            mutator=True,
            postcondition=_post(_REMOVE_POST, _V, Sort.BOOL),
        ),
        "remove_": Operation(
            name="remove_", params=_V, result_sort=None,
            precondition=_pre("v ~= null", _V),
            mutator=True,
            base_name="remove",
        ),
        "size": Operation(
            name="size", params=(), result_sort=Sort.INT,
            precondition=_pre("true", ()),
            mutator=False,
            postcondition=_post(
                "contents = old_contents & size = old_size & "
                "result = old_size", (), Sort.INT),
        ),
    }
    return DataStructureSpec(
        name=name,
        state_fields=dict(STATE_FIELDS),
        principal_field=PRINCIPAL,
        operations=operations,
        initial_state=Record(contents=frozenset(), size=0),
        invariant=lambda state: state["size"] == len(state["contents"]),
        states=_states,
        arguments=_arguments,
    )
