"""Symbolic abstract states: unbounded base state, finite observable part.

The key observation behind the symbolic backend: every operation and
condition in the paper's set/map/accumulator fragment observes only

- the membership/binding of the *mentioned* argument objects, and
- the structure's size relative to its initial size,

so an abstract state can be represented exactly by (1) a finite
membership/binding table over canonical equivalence-class tokens and
(2) a size that is symbolic: ``N + delta`` for an opaque initial size
``N``.  Verification over these symbolic states covers *all* initial
states, of any size, over any object universe — the same unbounded
guarantee Jahob's provers give the paper (the ArrayList case is handled
separately by canonical-partition enumeration, exact for unbounded
element universes at each bounded length).

The operations' semantics, generated from their postconditions
(:func:`repro.logic.compile.compile_semantics`), run over these values
as over concrete ones: they support the operators that code applies,
``in`` and ``|``/``-`` with a ``frozenset`` of tokens on a
:class:`SymSet`, ``in``/``lookup``/``put``/``remove`` on a
:class:`SymMap`, and ``+``/``-`` with an ``int`` on a :class:`SymInt`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eval.values import FMap


@dataclass(frozen=True)
class SymInt:
    """``base + delta`` where ``base`` names an opaque non-negative
    integer (or is None for a concrete value)."""

    base: str | None
    delta: int

    def __add__(self, k: object) -> "SymInt":
        if isinstance(k, int):
            return SymInt(self.base, self.delta + k)
        return NotImplemented

    __radd__ = plus = __add__

    def __sub__(self, k: object) -> "SymInt":
        return self + -k if isinstance(k, int) else NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SymInt):
            return self.base == other.base and self.delta == other.delta
        if isinstance(other, int) and self.base is None:
            return self.delta == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.delta))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.base is None:
            return str(self.delta)
        if self.delta == 0:
            return self.base
        sign = "+" if self.delta > 0 else "-"
        return f"{self.base}{sign}{abs(self.delta)}"


@dataclass(frozen=True)
class SymSet:
    """A set known only through the membership of finitely many tokens.

    ``membership[token]`` says whether the token's class is in the set;
    the set may contain arbitrarily many unmentioned elements.
    """

    membership: FMap

    def __contains__(self, token: str) -> bool:
        try:
            return self.membership[token]
        except KeyError:
            raise KeyError(f"token {token!r} not tracked by this SymSet") \
                from None

    def add(self, token: str) -> "SymSet":
        return SymSet(self.membership.put(token, True))

    def remove(self, token: str) -> "SymSet":
        return SymSet(self.membership.put(token, False))

    def __or__(self, tokens: frozenset) -> "SymSet":
        return SymSet(FMap({**self.membership,
                            **dict.fromkeys(tokens, True)}))

    def __sub__(self, tokens: frozenset) -> "SymSet":
        return SymSet(FMap({**self.membership,
                            **dict.fromkeys(tokens, False)}))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}{'∈' if v else '∉'}"
                          for k, v in sorted(self.membership.items()))
        return f"SymSet({inner})"


@dataclass(frozen=True)
class SymMap:
    """A partial map known only through the bindings of finitely many
    key tokens.  Absent-from-``binding`` keys are *unmapped*; mapped keys
    bind value tokens (possibly "fresh" tokens denoting unknown base
    values)."""

    binding: FMap
    #: key tokens tracked by this map (so absence is meaningful)
    tracked: frozenset[str]

    def __contains__(self, key: str) -> bool:
        if key not in self.tracked:
            raise KeyError(f"key token {key!r} not tracked by this SymMap")
        return key in self.binding

    def lookup(self, key: str):
        if key not in self.tracked:
            raise KeyError(f"key token {key!r} not tracked by this SymMap")
        return self.binding.lookup(key)

    def put(self, key: str, value: str) -> "SymMap":
        return SymMap(self.binding.put(key, value), self.tracked)

    def remove(self, key: str) -> "SymMap":
        return SymMap(self.binding.remove(key), self.tracked)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}->{v}"
                          for k, v in sorted(self.binding.items()))
        missing = ", ".join(sorted(self.tracked - set(self.binding)))
        return f"SymMap({inner}; unmapped: {missing})"
