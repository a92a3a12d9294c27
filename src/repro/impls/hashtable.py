"""HashTable: a separately-chained hash table implementing a map
(Chapter 5): an array contains linked lists of key/value pairs with a
hash function mapping keys to lists via the array."""

from __future__ import annotations

from typing import Iterator

from ..eval.values import FMap, Record
from .hashset import _hash_of, _relink


class _Node:
    """A bucket entry carrying its key's hash (see the HashSet node)."""

    __slots__ = ("key", "value", "hash", "next")

    def __init__(self, key: str, value: str, hash_: int,
                 next_: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.hash = hash_
        self.next = next_


class HashTable:
    """A map from objects to objects backed by a chained hash table."""

    _INITIAL_BUCKETS = 4
    _LOAD_FACTOR = 0.75

    def __init__(self) -> None:
        self._table: list[_Node | None] = [None] * self._INITIAL_BUCKETS
        self._size = 0

    # -- specified operations -------------------------------------------------

    def containsKey(self, k: str) -> bool:
        """True iff ``k`` is mapped."""
        if k is None:
            raise ValueError("k must not be null")
        return self._find(k) is not None

    def get(self, k: str) -> str | None:
        """The value mapped to ``k``, or None (null) if unmapped."""
        if k is None:
            raise ValueError("k must not be null")
        node = self._find(k)
        return node.value if node is not None else None

    def put(self, k: str, v: str) -> str | None:
        """Map ``k`` to ``v``; returns the previous value or None."""
        if k is None or v is None:
            raise ValueError("k and v must not be null")
        h = _hash_of(k)
        index = h % len(self._table)
        node = self._table[index]
        while node is not None:
            if node.key == k:
                previous = node.value
                node.value = v
                return previous
            node = node.next
        self._table[index] = _Node(k, v, h, self._table[index])
        self._size += 1
        if self._size > self._LOAD_FACTOR * len(self._table):
            self._resize()
        return None

    def remove(self, k: str) -> str | None:
        """Unmap ``k``; returns the previous value or None."""
        if k is None:
            raise ValueError("k must not be null")
        index = _hash_of(k) % len(self._table)
        prev: _Node | None = None
        node = self._table[index]
        while node is not None:
            if node.key == k:
                if prev is None:
                    self._table[index] = node.next
                else:
                    prev.next = node.next
                self._size -= 1
                return node.value
            prev = node
            node = node.next
        return None

    def size(self) -> int:
        """Number of key/value pairs."""
        return self._size

    # -- internals --------------------------------------------------------------

    def _find(self, k: str) -> _Node | None:
        node = self._table[_hash_of(k) % len(self._table)]
        while node is not None:
            if node.key == k:
                return node
            node = node.next
        return None

    def _resize(self) -> None:
        self._table = _relink(self._table, 2 * len(self._table))

    # -- abstraction function -----------------------------------------------------

    def abstract_state(self) -> Record:
        """The abstraction function: hash table -> abstract map state."""
        return Record(contents=FMap(dict(self._iter_pairs())),
                      size=self._size)

    def _iter_pairs(self) -> Iterator[tuple[str, str]]:
        for head in self._table:
            node = head
            while node is not None:
                yield node.key, node.value
                node = node.next

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(f"{k}->{v}" for k, v in sorted(self._iter_pairs()))
        return f"HashTable({pairs})"
