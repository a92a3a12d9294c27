"""Specification of the ArrayList (dense map from integers to objects).

Abstract state: ``elems`` (a sequence of objects) and ``size``.
Operations per Chapter 5: ``add_at``, ``get``, ``indexOf``,
``lastIndexOf``, ``remove_at``, ``set``, ``size``; ``remove_at`` and
``set`` have return-value and discard variants, giving 9 operations and
3 * 9^2 = 243 commutativity conditions.

``add_at(i, v)`` shifts all elements at indices >= i up one position;
``remove_at(i)`` shifts all elements above i down one position.  These
shifts are what make the ArrayList conditions (Tables 5.6/5.7) and their
verification (Section 5.2.1) substantially harder than the other data
structures.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..eval.enumeration import Scope, sequences
from ..eval.values import Record
from ..logic.sorts import Sort
from .interface import (DataStructureSpec, Operation, Param, parse_post,
                        parse_pre)

STATE_FIELDS = {"elems": Sort.SEQ, "size": Sort.INT}
PRINCIPAL = "elems"
_OBSERVERS = {
    "get": ((Sort.INT,), Sort.OBJ),
    "indexOf": ((Sort.OBJ,), Sort.INT),
    "lastIndexOf": ((Sort.OBJ,), Sort.INT),
    "size": ((), Sort.INT),
}


def _pre(text: str, params: tuple[Param, ...]):
    return parse_pre(text, STATE_FIELDS, params, _OBSERVERS, PRINCIPAL)


def _post(text: str, params: tuple[Param, ...], result: Sort | None):
    return parse_post(text, STATE_FIELDS, params, result, _OBSERVERS,
                      PRINCIPAL)


def _states(scope: Scope) -> Iterator[Record]:
    for elems in sequences(scope.objects, scope.max_seq_len):
        yield Record(elems=elems, size=len(elems))


def _arguments(op: Operation, scope: Scope) -> Iterator[tuple[Any, ...]]:
    indices = tuple(range(scope.max_seq_len + 1))
    if op.name == "add_at":
        for i in indices:
            for v in scope.objects:
                yield (i, v)
    elif op.name in ("set", "set_"):
        for i in indices[:-1]:
            for v in scope.objects:
                yield (i, v)
    elif op.name in ("get", "remove_at", "remove_at_"):
        for i in indices[:-1]:
            yield (i,)
    elif op.name in ("indexOf", "lastIndexOf"):
        for v in scope.objects:
            yield (v,)
    else:
        yield ()


_IV = (Param("i", Sort.INT), Param("v", Sort.OBJ))
_I = (Param("i", Sort.INT),)
_V = (Param("v", Sort.OBJ),)


def make_spec(name: str = "ArrayList") -> DataStructureSpec:
    """Build the ArrayList specification."""
    operations = {
        "add_at": Operation(
            name="add_at", params=_IV, result_sort=None,
            precondition=_pre("0 <= i & i <= s.size & v ~= null", _IV),
            mutator=True,
            postcondition=_post(
                "elems = ins(old_elems, i, v) & size = old_size + 1",
                _IV, None),
        ),
        "get": Operation(
            name="get", params=_I, result_sort=Sort.OBJ,
            precondition=_pre("0 <= i & i < s.size", _I),
            mutator=False,
            postcondition=_post(
                "elems = old_elems & size = old_size & "
                "result = at(old_elems, i)", _I, Sort.OBJ),
        ),
        "indexOf": Operation(
            name="indexOf", params=_V, result_sort=Sort.INT,
            precondition=_pre("v ~= null", _V),
            mutator=False,
            postcondition=_post(
                "elems = old_elems & size = old_size & "
                "result = idx(old_elems, v)", _V, Sort.INT),
        ),
        "lastIndexOf": Operation(
            name="lastIndexOf", params=_V, result_sort=Sort.INT,
            precondition=_pre("v ~= null", _V),
            mutator=False,
            postcondition=_post(
                "elems = old_elems & size = old_size & "
                "result = lidx(old_elems, v)", _V, Sort.INT),
        ),
        "remove_at": Operation(
            name="remove_at", params=_I, result_sort=Sort.OBJ,
            precondition=_pre("0 <= i & i < s.size", _I),
            mutator=True,
            postcondition=_post(
                "elems = del_(old_elems, i) & size = old_size - 1 & "
                "result = at(old_elems, i)", _I, Sort.OBJ),
        ),
        "remove_at_": Operation(
            name="remove_at_", params=_I, result_sort=None,
            precondition=_pre("0 <= i & i < s.size", _I),
            mutator=True,
            base_name="remove_at",
        ),
        "set": Operation(
            name="set", params=_IV, result_sort=Sort.OBJ,
            precondition=_pre("0 <= i & i < s.size & v ~= null", _IV),
            mutator=True,
            postcondition=_post(
                "elems = upd(old_elems, i, v) & size = old_size & "
                "result = at(old_elems, i)", _IV, Sort.OBJ),
        ),
        "set_": Operation(
            name="set_", params=_IV, result_sort=None,
            precondition=_pre("0 <= i & i < s.size & v ~= null", _IV),
            mutator=True,
            base_name="set",
        ),
        "size": Operation(
            name="size", params=(), result_sort=Sort.INT,
            precondition=_pre("true", ()),
            mutator=False,
            postcondition=_post(
                "elems = old_elems & size = old_size & result = old_size",
                (), Sort.INT),
        ),
    }
    return DataStructureSpec(
        name=name,
        state_fields=dict(STATE_FIELDS),
        principal_field=PRINCIPAL,
        operations=operations,
        initial_state=Record(elems=(), size=0),
        invariant=lambda state: state["size"] == len(state["elems"]),
        states=_states,
        arguments=_arguments,
    )
