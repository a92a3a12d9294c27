"""Arm-time admission compilation for one conflict manager.

Every commutativity-policy manager builds a :class:`CompiledAdmission`
when it is constructed: every between condition in the structure's
catalog and every registered drift-stable condition is lowered (through
the process-global content-addressed cache) into a slot-specialized
closure *before the first transaction runs*.  The hot loop then asks
:meth:`between_checker` / :meth:`stable_checker` — plain dict lookups —
and falls back to the interpreter, one check at a time, only for pairs
the lowerer refused (:class:`~repro.compiled.lowering.CompileError`,
cached as ``None``) or calls whose arity does not fit the compiled slot
layout (:class:`~repro.compiled.lowering.SlotMismatch`).  The
interpreter stays the reference: closures decide exactly as it does,
and the tests compare the two.

Shard-router predicates need no lowering: they are already plain
Python closures (:mod:`repro.runtime.sharding`), memoized per
(operation, arguments) by the manager's virtual-route cache — the
formula ASTs were the only interpreted piece of the admission path.
"""

from __future__ import annotations

from ..commutativity.conditions import Kind
from ..engine.fingerprint import spec_fingerprint, stable_hash
from .cache import compiled_pair
from .lowering import LoweredCheck

#: id(spec) -> (spec, fingerprint hash).  Specs are immutable
#: module-level singletons; hashing one costs milliseconds (it
#: serializes every operation's semantics source) while a manager is
#: armed per run, so the hash is computed once per spec object.  The
#: strong reference keeps the id from being recycled.
_SPEC_HASHES: dict[int, tuple[object, str]] = {}


def _spec_hash(spec) -> str:
    cached = _SPEC_HASHES.get(id(spec))
    if cached is not None:
        return cached[1]
    digest = stable_hash(spec_fingerprint(spec))
    _SPEC_HASHES[id(spec)] = (spec, digest)
    return digest


class CompiledAdmission:
    """The compiled checks of one structure's admission vocabulary."""

    __slots__ = ("spec", "ctx", "between", "stable")

    def __init__(self, spec, ctx, conditions=(),
                 stable_conditions=()) -> None:
        self.spec = spec
        self.ctx = ctx
        spec_fp = _spec_hash(spec)
        #: (m1, m2) -> lowered between check, or None (uncompilable).
        self.between: dict[tuple[str, str], LoweredCheck | None] = {}
        for cond in conditions:
            if cond.kind is not Kind.BETWEEN:
                continue
            self.between[(cond.m1, cond.m2)] = compiled_pair(
                spec, spec_fp, cond, "between", ctx)
        #: (m1, m2) -> lowered drift-stable check, or None.  The tier
        #: is part of the cache label (informative, never
        #: decision-relevant — both tiers admit identically).
        self.stable: dict[tuple[str, str], LoweredCheck | None] = {}
        for stable in stable_conditions:
            label = f"stable:{getattr(stable, 'tier', 'weakened')}"
            self.stable[(stable.m1, stable.m2)] = compiled_pair(
                spec, spec_fp, stable, label, ctx)

    def between_checker(self, m1: str, m2: str) -> LoweredCheck | None:
        """The compiled between check for a pair (None: interpret)."""
        return self.between.get((m1, m2))

    def stable_checker(self, m1: str, m2: str) -> LoweredCheck | None:
        """The compiled drift-stable check for a pair (None: interpret)."""
        return self.stable.get((m1, m2))

    @property
    def compiled_count(self) -> int:
        """How many pairs actually lowered (diagnostics)."""
        return (sum(1 for c in self.between.values() if c is not None)
                + sum(1 for c in self.stable.values() if c is not None))

    @property
    def folded_count(self) -> int:
        """How many lowered pairs folded to a constant (diagnostics)."""
        return (sum(1 for c in self.between.values()
                    if c is not None and c.is_const)
                + sum(1 for c in self.stable.values()
                      if c is not None and c.is_const))
