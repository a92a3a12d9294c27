"""HashSet: a separately-chained hash table implementing a set
(Figure 2-1).

The concrete state is an array ``table`` of buckets, each a singly-linked
list of elements, plus an element count; the abstraction function maps it
to the abstract ``{contents, size}`` state.  The table resizes by
doubling at a 0.75 load factor, which changes the concrete layout but —
as the abstraction function shows — never the abstract state.
"""

from __future__ import annotations

from typing import Iterator

from ..eval.values import Record


class _Node:
    """A bucket entry carrying its element's hash, so a resize relinks
    it without rehashing (like ``java.util.HashMap.Node.hash``)."""

    __slots__ = ("value", "hash", "next")

    def __init__(self, value: str, hash_: int, next_: "_Node | None") -> None:
        self.value = value
        self.hash = hash_
        self.next = next_


def _hash_of(value: str) -> int:
    """Deterministic string hash (stable across runs, unlike ``hash``);
    an element lives in bucket ``_hash_of(value) % buckets``."""
    h = 0
    for ch in value:
        h = (h * 31 + ord(ch)) & 0x7FFFFFFF
    return h


def _relink(old: list, buckets: int) -> list:
    """A ``buckets``-long table holding ``old``'s nodes, each pushed onto
    the front of its new bucket by its stored hash.  Walking ``old`` in
    order gives the layout rehashing every element would."""
    table: list = [None] * buckets
    for node in old:
        while node is not None:
            following = node.next
            index = node.hash % buckets
            node.next = table[index]
            table[index] = node
            node = following
    return table


class HashSet:
    """A set of objects backed by a separately-chained hash table."""

    _INITIAL_BUCKETS = 4
    _LOAD_FACTOR = 0.75

    def __init__(self) -> None:
        self._table: list[_Node | None] = [None] * self._INITIAL_BUCKETS
        self._size = 0

    # -- specified operations -------------------------------------------------

    def add(self, v: str) -> bool:
        """Add ``v``; returns True iff it was not already present."""
        if v is None:
            raise ValueError("v must not be null")
        h = _hash_of(v)
        index = h % len(self._table)
        node = self._table[index]
        while node is not None:
            if node.value == v:
                return False
            node = node.next
        self._table[index] = _Node(v, h, self._table[index])
        self._size += 1
        if self._size > self._LOAD_FACTOR * len(self._table):
            self._resize()
        return True

    def contains(self, v: str) -> bool:
        """True iff ``v`` is in the set."""
        if v is None:
            raise ValueError("v must not be null")
        node = self._table[_hash_of(v) % len(self._table)]
        while node is not None:
            if node.value == v:
                return True
            node = node.next
        return False

    def remove(self, v: str) -> bool:
        """Remove ``v``; returns True iff it was present."""
        if v is None:
            raise ValueError("v must not be null")
        index = _hash_of(v) % len(self._table)
        prev: _Node | None = None
        node = self._table[index]
        while node is not None:
            if node.value == v:
                if prev is None:
                    self._table[index] = node.next
                else:
                    prev.next = node.next
                self._size -= 1
                return True
            prev = node
            node = node.next
        return False

    def size(self) -> int:
        """Number of elements."""
        return self._size

    # -- internals --------------------------------------------------------------

    def _resize(self) -> None:
        self._table = _relink(self._table, 2 * len(self._table))

    # -- abstraction function -----------------------------------------------------

    def abstract_state(self) -> Record:
        """The abstraction function: hash table -> abstract set state."""
        return Record(contents=frozenset(self._iter_values()),
                      size=self._size)

    def _iter_values(self) -> Iterator[str]:
        for head in self._table:
            node = head
            while node is not None:
                yield node.value
                node = node.next

    def concrete_shape(self) -> tuple[tuple[str, ...], ...]:
        """Bucket-by-bucket layout (tests use this to exhibit equal
        abstract states with different concrete states)."""
        shape = []
        for head in self._table:
            bucket = []
            node = head
            while node is not None:
                bucket.append(node.value)
                node = node.next
            shape.append(tuple(bucket))
        return tuple(shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashSet({sorted(self._iter_values())})"
