"""Specification of the map interface shared by AssociationList and
HashTable.

Abstract state: ``contents`` (a partial map from keys to values) and
``size``.  Operations per Chapter 5: ``containsKey``, ``get``, ``put``,
``remove``, ``size``; ``put`` and ``remove`` have return-value and
discard variants (``put_``, ``remove_``), giving 7 operations and
3 * 7^2 = 147 commutativity conditions per data structure.

``get``/``put``/``remove`` return ``null`` when the key is unmapped;
values are non-null by precondition, so ``null`` unambiguously means
"absent", which is exactly the property the inverse operation for ``put``
relies on (Figure 2-4).
"""

from __future__ import annotations

from typing import Any, Iterator

from ..eval.enumeration import Scope, partial_maps
from ..eval.values import FMap, Record
from ..logic.sorts import Sort
from .interface import (DataStructureSpec, Operation, Param, parse_post,
                        parse_pre)

STATE_FIELDS = {"contents": Sort.MAP, "size": Sort.INT}
PRINCIPAL = "contents"
_OBSERVERS = {
    "containsKey": ((Sort.OBJ,), Sort.BOOL),
    "get": ((Sort.OBJ,), Sort.OBJ),
    "size": ((), Sort.INT),
}


def _pre(text: str, params: tuple[Param, ...]):
    return parse_pre(text, STATE_FIELDS, params, _OBSERVERS, PRINCIPAL)


def _post(text: str, params: tuple[Param, ...], result: Sort | None):
    return parse_post(text, STATE_FIELDS, params, result, _OBSERVERS,
                      PRINCIPAL)


def _states(scope: Scope) -> Iterator[Record]:
    for contents in partial_maps(scope.objects, scope.values):
        yield Record(contents=contents, size=len(contents))


def _arguments(op: Operation, scope: Scope) -> Iterator[tuple[Any, ...]]:
    if op.name in ("put", "put_"):
        for k in scope.objects:
            for v in scope.values:
                yield (k, v)
    elif op.params:
        for k in scope.objects:
            yield (k,)
    else:
        yield ()


_K = (Param("k", Sort.OBJ),)
_KV = (Param("k", Sort.OBJ), Param("v", Sort.OBJ))

_PUT_POST = (
    "lookup(contents, k) = v & result = lookup(old_contents, k) & "
    "(haskey(old_contents, k) --> size = old_size) & "
    "(~haskey(old_contents, k) --> size = old_size + 1) & "
    "contents = mput(old_contents, k, v)"
)
_REMOVE_POST = (
    "result = lookup(old_contents, k) & contents = mdel(old_contents, k) & "
    "(haskey(old_contents, k) --> size = old_size - 1) & "
    "(~haskey(old_contents, k) --> size = old_size)"
)


def make_spec(name: str = "Map") -> DataStructureSpec:
    """Build the map specification (shared by AssociationList/HashTable)."""
    operations = {
        "containsKey": Operation(
            name="containsKey", params=_K, result_sort=Sort.BOOL,
            precondition=_pre("k ~= null", _K),
            mutator=False,
            postcondition=_post(
                "contents = old_contents & size = old_size & "
                "(result <-> haskey(old_contents, k))", _K, Sort.BOOL),
        ),
        "get": Operation(
            name="get", params=_K, result_sort=Sort.OBJ,
            precondition=_pre("k ~= null", _K),
            mutator=False,
            postcondition=_post(
                "contents = old_contents & size = old_size & "
                "result = lookup(old_contents, k)", _K, Sort.OBJ),
        ),
        "put": Operation(
            name="put", params=_KV, result_sort=Sort.OBJ,
            precondition=_pre("k ~= null & v ~= null", _KV),
            mutator=True,
            postcondition=_post(_PUT_POST, _KV, Sort.OBJ),
        ),
        "put_": Operation(
            name="put_", params=_KV, result_sort=None,
            precondition=_pre("k ~= null & v ~= null", _KV),
            mutator=True,
            base_name="put",
        ),
        "remove": Operation(
            name="remove", params=_K, result_sort=Sort.OBJ,
            precondition=_pre("k ~= null", _K),
            mutator=True,
            postcondition=_post(_REMOVE_POST, _K, Sort.OBJ),
        ),
        "remove_": Operation(
            name="remove_", params=_K, result_sort=None,
            precondition=_pre("k ~= null", _K),
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
        initial_state=Record(contents=FMap(), size=0),
        invariant=lambda state: state["size"] == len(state["contents"]),
        states=_states,
        arguments=_arguments,
    )
