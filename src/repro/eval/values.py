"""Finite semantic values for the specification logic.

Object references are interned strings (``"a"``, ``"b"``, ...) with
``None`` playing the role of ``null``.  Sets are ``frozenset``; sequences
are tuples; partial maps are :class:`FMap`, a small immutable hashable
dictionary; abstract data-structure states are :class:`Record`.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

Obj = str | None


class FMap(Mapping[str, Any]):
    """An immutable, hashable partial map used as the map abstract state.

    The hash is computed on first use and cached, so a functional update
    costs one dict copy and no O(size) hash until something hashes it.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Mapping[str, Any] | None = None) -> None:
        object.__setattr__(self, "_items", dict(items) if items else {})
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _adopt(cls, data: dict[str, Any]) -> "FMap":
        """Wrap ``data`` without copying it; the caller gives it up."""
        new = object.__new__(cls)
        object.__setattr__(new, "_items", data)
        object.__setattr__(new, "_hash", None)
        return new

    # Mapping interface -----------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self._items[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # Racing threads store the same value: benign.
            h = hash(frozenset(self._items.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, FMap):
            if self._hash is not None and other._hash is not None \
                    and self._hash != other._hash:
                return False
            return self._items == other._items
        return NotImplemented

    def __reduce__(self):
        # Never carry a cached hash: str hashes differ between processes.
        return FMap._adopt, (self._items,)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(self._items.items()))
        return "FMap({" + inner + "})"

    # Functional updates ----------------------------------------------------

    def put(self, key: str, value: Any) -> "FMap":
        data = dict(self._items)
        data[key] = value
        return FMap._adopt(data)

    def remove(self, key: str) -> "FMap":
        if key not in self._items:
            return self
        data = dict(self._items)
        del data[key]
        return FMap._adopt(data)

    def lookup(self, key: str) -> Any:
        """Value for ``key``, or ``None`` (null) when unmapped."""
        return self._items.get(key)


class Record(Mapping[str, Any]):
    """An immutable record of named fields — an abstract data-structure
    state such as ``{contents: {a, b}, size: 2}``.  Hashed lazily, like
    :class:`FMap`."""

    __slots__ = ("_fields", "_hash")

    def __init__(self, **fields: Any) -> None:
        # ``**fields`` is already a fresh dict owned by this call.
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _adopt(cls, fields: dict[str, Any]) -> "Record":
        """Wrap ``fields`` without copying it; the caller gives it up."""
        new = object.__new__(cls)
        object.__setattr__(new, "_fields", fields)
        object.__setattr__(new, "_hash", None)
        return new

    def __getitem__(self, name: str) -> Any:
        return self._fields[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self._fields.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Record):
            if self._hash is not None and other._hash is not None \
                    and self._hash != other._hash:
                return False
            return self._fields == other._fields
        return NotImplemented

    def __reduce__(self):
        return Record._adopt, (self._fields,)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._fields.items()))
        return f"Record({inner})"

    def replace(self, **updates: Any) -> "Record":
        data = dict(self._fields)
        data.update(updates)
        return Record._adopt(data)


def encode_value(value: Any) -> Any:
    """The canonical JSON-representable form of a value.

    Scalars (str/int/float/bool/None) pass through as themselves; the
    four structured shapes become tagged dicts, so decoding is
    unambiguous.  Set elements are sorted, so the form never depends on
    hash order (``PYTHONHASHSEED``), as ``repr`` of a ``frozenset``
    does: equal values encode equally in every process.  The admission
    service's wire codec and the executor's decision digest both use
    it.  Anything else raises :class:`TypeError`.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, Record):
        return {"#": "rec", "v": {k: encode_value(value[k]) for k in value}}
    if isinstance(value, FMap):
        return {"#": "map", "v": {k: encode_value(value[k]) for k in value}}
    if isinstance(value, frozenset):
        return {"#": "set",
                "v": sorted((encode_value(item) for item in value),
                            key=repr)}
    if isinstance(value, tuple):
        return {"#": "seq", "v": [encode_value(item) for item in value]}
    raise TypeError(f"unencodable value type {type(value).__name__}")


def seq_index_of(seq: tuple[Obj, ...], value: Obj) -> int:
    """Index of the first occurrence of ``value`` in ``seq``, or -1."""
    for i, item in enumerate(seq):
        if item == value:
            return i
    return -1


def seq_last_index_of(seq: tuple[Obj, ...], value: Obj) -> int:
    """Index of the last occurrence of ``value`` in ``seq``, or -1."""
    for i in range(len(seq) - 1, -1, -1):
        if seq[i] == value:
            return i
    return -1


def seq_insert(seq: tuple[Obj, ...], index: int, value: Obj) -> tuple[Obj, ...]:
    """The sequence with ``value`` inserted at ``index`` (0 <= i <= len)."""
    return seq[:index] + (value,) + seq[index:]


def seq_remove(seq: tuple[Obj, ...], index: int) -> tuple[Obj, ...]:
    """The sequence with the element at ``index`` removed."""
    return seq[:index] + seq[index + 1:]


def seq_update(seq: tuple[Obj, ...], index: int, value: Obj) -> tuple[Obj, ...]:
    """The sequence with the element at ``index`` replaced by ``value``."""
    return seq[:index] + (value,) + seq[index + 1:]
