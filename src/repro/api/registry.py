"""The pluggable data-structure registry.

A :class:`Registry` owns the full name resolution the rest of the
package needs: structure name -> specification family, family -> spec,
family -> commutativity-condition catalog, family -> inverse catalog,
and structure name -> concrete implementation class.  Every consumer
(verifiers, runtime, reporting, CLI) takes a registry and falls back to
:data:`repro.api.DEFAULT_REGISTRY`, which is pre-populated with the
paper's six structures through the same registration calls a downstream
user makes for their own structure (see ``examples/custom_datastructure.py``).

Caching is per instance: two registries never share built specs or
condition lists, so a user's experimental registration can never leak
into the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..commutativity.conditions import CommutativityCondition, Kind
from ..inverses.catalog import InverseSpec, NoInverse
from ..specs.interface import DataStructureSpec
from .errors import DuplicateNameError, UnknownNameError

def _coerce_kind(kind: Kind | str) -> Kind:
    return kind if isinstance(kind, Kind) else Kind(kind)


@dataclass(frozen=True)
class RegistryEntry:
    """One row of :meth:`Registry.describe` (and ``python -m repro list``)."""

    name: str
    family: str
    condition_count: int
    inverse_count: int
    implementation: type | None


class Registry:
    """Name -> (spec, conditions, inverses, implementation) resolution."""

    def __init__(self) -> None:
        self._spec_builders: dict[str, Callable[[], DataStructureSpec]] = {}
        #: Structure name -> family (a family registered without aliases
        #: maps to itself).
        self._aliases: dict[str, str] = {}
        #: Structure names in registration order (drives CLI choices).
        self._names: list[str] = []
        self._condition_builders: dict[
            str, Callable[[DataStructureSpec],
                          Iterable[CommutativityCondition]]] = {}
        self._inverse_specs: dict[str, tuple[InverseSpec, ...]] = {}
        #: Family -> compiled drift-stable conditions (artifacts of the
        #: :mod:`repro.stability` compiler, keyed like conditions).
        self._stable_conditions: dict[str, tuple] = {}
        self._implementations: dict[str, type] = {}
        #: Family -> shard router (see :mod:`repro.runtime.sharding`).
        self._shard_routers: dict[str, Callable] = {}
        # Per-instance caches (replace the old module-global lru_caches).
        self._spec_cache: dict[str, DataStructureSpec] = {}
        self._condition_cache: dict[
            str, tuple[CommutativityCondition, ...]] = {}

    @classmethod
    def with_builtins(cls) -> "Registry":
        """A fresh registry pre-populated with the paper's six structures."""
        from .default import populate_builtins
        return populate_builtins(cls())

    # -- registration --------------------------------------------------------

    def register_spec(self, family: str, spec: Any, *,
                      aliases: Sequence[str] = (),
                      implementation: type | None = None) -> None:
        """Register a specification family.

        ``spec`` is a :class:`DataStructureSpec` or a zero-argument
        builder for one (built lazily, cached per registry).  With no
        ``aliases`` the family itself becomes a structure name; each
        alias becomes a structure name sharing the family's spec,
        conditions, and inverses.  ``implementation`` optionally binds a
        concrete class to every registered structure name.
        """
        names = tuple(aliases) or (family,)
        # Validate everything before the first mutation so a rejected
        # registration leaves the registry untouched — including
        # duplicates *within* this call's alias list.
        seen: set[str] = set()
        for name in (family, *names):
            if name in self._aliases or name in self._spec_builders \
                    or (name in seen and name != family):
                raise DuplicateNameError(
                    f"data structure {name!r} is already registered")
            seen.add(name)
        builder = spec if callable(spec) else (lambda spec=spec: spec)
        self._spec_builders[family] = builder
        for name in names:
            self.register_alias(name, family)
            if implementation is not None:
                self.register_implementation(name, implementation)

    def register_alias(self, name: str, family: str) -> None:
        """Make ``name`` a structure name resolving to ``family``."""
        if family not in self._spec_builders:
            raise UnknownNameError("specification family", family,
                                   tuple(self._spec_builders))
        if name in self._aliases or (name != family
                                     and name in self._spec_builders):
            raise DuplicateNameError(
                f"data structure {name!r} is already registered")
        self._aliases[name] = family
        self._names.append(name)

    def register_conditions(self, name: str, conditions: Any) -> None:
        """Register the commutativity-condition catalog of ``name``'s family.

        ``conditions`` is either an iterable of
        :class:`CommutativityCondition` or a builder called with the
        family's spec (built lazily, cached per registry).
        """
        family = self.family_of(name)
        if family in self._condition_builders:
            raise DuplicateNameError(
                f"conditions for {family!r} are already registered")
        if callable(conditions):
            builder = conditions
        else:
            fixed = tuple(conditions)
            builder = lambda spec, fixed=fixed: fixed  # noqa: E731
        self._condition_builders[family] = builder
        self._condition_cache.pop(family, None)
        self._disarm(family)

    def register_inverses(self, name: str,
                          inverses: Iterable[InverseSpec]) -> None:
        """Register the inverse-operation catalog of ``name``'s family."""
        family = self.family_of(name)
        if family in self._inverse_specs:
            raise DuplicateNameError(
                f"inverses for {family!r} are already registered")
        self._inverse_specs[family] = tuple(inverses)

    def register_stable_conditions(self, name: str, conditions,
                                   replace: bool = False) -> None:
        """Register compiled drift-stable conditions for ``name``'s family.

        ``conditions`` is an iterable of
        :class:`~repro.stability.StableCondition` — the artifacts of
        :meth:`repro.api.Session.compile_stable`.  Unlike the
        source-of-truth catalogs, stable conditions are *derived* data:
        recompiling (e.g. with a different scope) is legitimate, so
        ``replace=True`` overwrites a previous registration instead of
        raising.
        """
        family = self.family_of(name)
        if family in self._stable_conditions and not replace:
            raise DuplicateNameError(
                f"stable conditions for {family!r} are already "
                f"registered (pass replace=True to recompile)")
        self._stable_conditions[family] = tuple(conditions)
        self._disarm(family)

    def _disarm(self, family: str) -> None:
        """Drop the family's shared admission plans (armed from the
        catalogs just replaced; see :func:`repro.compiled.armed`)."""
        from ..compiled.cache import disarm
        disarm(self, family)

    def has_stable_conditions(self, name: str) -> bool:
        return self.family_of(name) in self._stable_conditions

    def stable_conditions(self, name: str) -> list:
        """The compiled drift-stable conditions of a structure's family."""
        family = self.family_of(name)
        if family not in self._stable_conditions:
            raise UnknownNameError("stable-condition catalog", family,
                                   tuple(self._stable_conditions))
        return list(self._stable_conditions[family])

    def register_shard_router(self, name: str, router: Callable) -> None:
        """Register the shard router of ``name``'s family.

        A router is a callable ``(op_name, args, num_shards) -> shard
        ids | None`` (``None`` = every shard) that the sharded
        gatekeeper uses to partition its log into interaction regions.
        Soundness contract: the router may only place two operations in
        disjoint shard sets when they *unconditionally* commute (their
        between condition holds in every state) — see
        :mod:`repro.runtime.sharding`.  Structures without a router fall
        back to a single region (flat-log behaviour).
        """
        family = self.family_of(name)
        if family in self._shard_routers:
            raise DuplicateNameError(
                f"shard router for {family!r} is already registered")
        self._shard_routers[family] = router

    def has_shard_router(self, name: str) -> bool:
        return self.family_of(name) in self._shard_routers

    def shard_router(self, name: str) -> Callable | None:
        """The shard router of a structure's family, or ``None``."""
        return self._shard_routers.get(self.family_of(name))

    def register_implementation(self, name: str, cls: type) -> None:
        """Bind a concrete implementation class to a structure name."""
        self.family_of(name)  # validates the name
        if name in self._implementations:
            raise DuplicateNameError(
                f"implementation for {name!r} is already registered")
        self._implementations[name] = cls

    def datastructure(self, family: str, *, aliases: Sequence[str] = (),
                      implementation: type | None = None) -> Callable:
        """Decorator form of :meth:`register_spec` for builder functions::

            @registry.datastructure("Register")
            def make_register_spec() -> DataStructureSpec: ...
        """
        def decorate(builder: Callable[[], DataStructureSpec]) -> Callable:
            self.register_spec(family, builder, aliases=aliases,
                               implementation=implementation)
            return builder
        return decorate

    # -- lookup --------------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        """Registered structure names, in registration order."""
        return tuple(self._names)

    def families(self) -> tuple[str, ...]:
        """Registered specification-family names, in registration order."""
        return tuple(self._spec_builders)

    def __contains__(self, name: object) -> bool:
        return name in self._aliases or name in self._spec_builders

    def family_of(self, name: str) -> str:
        """Resolve a structure or family name to its family."""
        family = self._aliases.get(name)
        if family is not None:
            return family
        if name in self._spec_builders:
            return name
        candidates = tuple(dict.fromkeys(
            self._names + list(self._spec_builders)))
        raise UnknownNameError("data structure", name, candidates)

    def spec(self, name: str) -> DataStructureSpec:
        """The (per-registry cached) spec of a structure or family name."""
        family = self.family_of(name)
        if family not in self._spec_cache:
            self._spec_cache[family] = self._spec_builders[family]()
        return self._spec_cache[family]

    def has_conditions(self, name: str) -> bool:
        return self.family_of(name) in self._condition_builders

    def conditions(self, name: str) -> list[CommutativityCondition]:
        """The condition catalog of a structure or family name."""
        family = self.family_of(name)
        if family not in self._condition_cache:
            builder = self._condition_builders.get(family)
            if builder is None:
                raise UnknownNameError("condition catalog", family,
                                       tuple(self._condition_builders))
            self._condition_cache[family] = tuple(builder(self.spec(family)))
        return list(self._condition_cache[family])

    def condition(self, name: str, m1: str, m2: str,
                  kind: Kind | str) -> CommutativityCondition:
        """Look up a single condition by operation pair and kind."""
        kind = _coerce_kind(kind)
        conditions = self.conditions(name)
        for cond in conditions:
            if cond.m1 == m1 and cond.m2 == m2 and cond.kind is kind:
                return cond
        operations = tuple(self.spec(name).operations)
        for op in (m1, m2):
            if op not in operations:
                raise UnknownNameError(
                    f"{self.family_of(name)} operation", op, operations)
        raise UnknownNameError(
            f"{kind} condition for {self.family_of(name)}", f"{m1};{m2}",
            tuple(f"{c.m1};{c.m2}" for c in conditions if c.kind is kind))

    def inverses(self, name: str) -> list[InverseSpec]:
        """The inverse catalog of a structure or family name."""
        return list(self._inverse_specs.get(self.family_of(name), ()))

    def inverse(self, name: str, op: str) -> InverseSpec:
        """The inverse spec of one operation."""
        inverses = self.inverses(name)
        for inv in inverses:
            if inv.op == op:
                return inv
        raise UnknownNameError(
            f"inverse for {self.family_of(name)} operation", op,
            tuple(inv.op for inv in inverses))

    def resolve_undo(self, name: str, op: Any, args: tuple[Any, ...],
                     result: Any):
        """The undo of one execution ``op(args) -> result``: the
        ``(operation, arguments)`` calls an abort applies, resolved by
        the inverse registered for the operation's base name
        (:meth:`~repro.inverses.InverseSpec.calls`).  ``result`` is the
        base operation's raw return value, which a discard variant
        drops.  ``()`` for a read; a :class:`~repro.inverses.NoInverse`
        for a mutator its family registers no inverse for."""
        if not op.mutator:
            return ()
        family = self.family_of(name)
        base = op.base_name or op.name
        for inverse in self._inverse_specs.get(family, ()):
            if inverse.op == base:
                params = self.spec(family).operations[base].params
                return inverse.calls(
                    {p.name: v for p, v in zip(params, args)}, result)
        return NoInverse(family, base)

    def has_implementation(self, name: str) -> bool:
        return name in self._implementations

    def implementation(self, name: str) -> type:
        """The concrete class registered for a structure name."""
        self.family_of(name)  # friendlier error for unknown names
        cls = self._implementations.get(name)
        if cls is None:
            raise UnknownNameError("concrete implementation", name,
                                   tuple(self._implementations))
        return cls

    def new_instance(self, name: str) -> Any:
        """A fresh concrete structure for a registered name."""
        return self.implementation(name)()

    # -- aggregates ----------------------------------------------------------

    def total_condition_count(self) -> int:
        """Conditions summed per *structure name* (the paper counts the
        shared Set/Map catalogs once per implementing structure: 765)."""
        return sum(len(self.conditions(name)) for name in self._names
                   if self.has_conditions(name))

    def describe(self) -> list[RegistryEntry]:
        """One :class:`RegistryEntry` per structure name."""
        rows = []
        for name in self._names:
            family = self.family_of(name)
            rows.append(RegistryEntry(
                name=name, family=family,
                condition_count=(len(self.conditions(name))
                                 if self.has_conditions(name) else 0),
                inverse_count=len(self._inverse_specs.get(family, ())),
                implementation=self._implementations.get(name)))
        return rows
