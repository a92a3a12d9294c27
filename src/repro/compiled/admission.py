"""Admission pair plans, armed once per registry and shared by every
conflict manager.

The gatekeeper checks a between condition "just before executing" each
operation against every outstanding one.  Apart from the two calls'
values, everything such a check needs is fixed per ordered operation
pair: both operations and their arities, the catalog between condition
and whether it reads abstract state, its compiled closure, and the
drift-stable condition armed for the pair with its closure and
certificate tier.  :func:`armed` resolves all of it into one
:class:`PairPlan` per pair, once per (registry, structure family,
arming), so a pair check costs one dict lookup before its decision.

A plan whose between condition folded to constant ``true``, reads no
state and follows a read (no undo can be pending) decides outright:
:attr:`PairPlan.reads_true` lets the gatekeeper admit the pair without
evaluating anything, counting it as the compiled check it is.

Closures come from the process-global content-addressed pair cache
(:mod:`.cache`), so registries with the same content share them.  A
pair the compiler refused holds ``None`` and is interpreted, one check
at a time, as is a call whose arity does not fit the closure's slot
layout (:class:`~repro.compiled.lowering.SlotMismatch`).  The
interpreter stays the reference: closures decide exactly as it does,
and the tests compare the two.

An arming lives as long as its registry (:func:`.cache.shared_arming`
keys armings weakly by registry, so it never keeps one alive), the
registry drops a family's armings whenever that family's conditions or
stable conditions are registered (:func:`.cache.disarm`), and
:func:`repro.compiled.clear_cache` drops every arming with the
closures.

Shard-router predicates need no lowering: they are already plain
Python closures (:mod:`repro.runtime.sharding`), memoized per
(operation, arguments) by the manager's virtual-route cache.
"""

from __future__ import annotations

from typing import Any

from ..commutativity.conditions import Kind
from ..engine.fingerprint import spec_fingerprint, stable_hash
from ..eval.interpreter import EvalContext
from ..logic.compile import NOT_CONST
from .cache import compiled_pair, shared_arming
from .lowering import LoweredCheck


class PairPlan:
    """Everything admission resolves once for one ordered pair: ``m1``
    the logged operation, ``m2`` the incoming one."""

    __slots__ = ("op1", "op2", "cond", "drift_fragile", "between",
                 "stable", "stable_check", "tier", "n1", "n2",
                 "reads_true")

    def __init__(self, op1, op2, cond, between: LoweredCheck | None,
                 stable, stable_check: LoweredCheck | None) -> None:
        self.op1 = op1
        self.op2 = op2
        #: The catalog between condition.
        self.cond = cond
        #: Whether it reads abstract state (the drift guard's test).
        self.drift_fragile: bool = cond.drift_fragile
        #: Its compiled closure; ``None``: the interpreter decides.
        self.between = between
        #: The drift-stable condition armed for the pair, or ``None``,
        #: with its compiled closure and certificate tier.
        self.stable = stable
        self.stable_check = stable_check
        self.tier: str = getattr(stable, "tier", "weakened")
        #: The arities every compiled check of the pair was laid out for.
        self.n1 = len(op1.params)
        self.n2 = len(op2.params)
        #: Admit without evaluating: the compiled condition is the
        #: constant ``true`` (its value in every environment), it
        #: reads no state (so no drift can make it stale) and the
        #: logged operation is a read (so no undo is pending for the
        #: undo guard).  Calls of the plan's arities only: any other
        #: goes to the interpreter.
        self.reads_true: bool = (
            between is not None and between.const is not NOT_CONST
            and bool(between.const) and not self.drift_fragile
            and not op1.mutator)


def armed(registry, ds_name: str,
          stable: bool) -> dict[str, dict[str, PairPlan]]:
    """The pair plans of ``ds_name``'s family on ``registry``, armed
    with its drift-stable conditions when ``stable``: incoming
    operation -> logged operation -> :class:`PairPlan`, one per catalog
    between condition.  Built on first use and shared until the
    registry dies, re-registers the family's conditions or stable
    conditions, or :func:`~repro.compiled.clear_cache` runs."""
    family = registry.family_of(ds_name)
    return shared_arming(registry, family, stable,
                         lambda: _arm(registry, family, stable))


def _arm(registry, family: str,
         stable: bool) -> dict[str, dict[str, PairPlan]]:
    spec = registry.spec(family)
    ctx = EvalContext(observe=spec.observe)
    # One spec hash per arming: the pair cache keys embed it, and
    # serializing the spec per pair would dominate arming.
    spec_fp = stable_hash(spec_fingerprint(spec))
    stables: dict[tuple[str, str], Any] = {}
    if stable:
        stables = {(c.m1, c.m2): c
                   for c in registry.stable_conditions(family)}
    conditions = (registry.conditions(family)
                  if registry.has_conditions(family) else ())
    plans: dict[str, dict[str, PairPlan]] = {}
    for cond in conditions:
        if cond.kind is not Kind.BETWEEN:
            continue
        row = plans.setdefault(cond.m2, {})
        if cond.m1 in row:
            continue  # the registry's lookup answers with the first
        stable_cond = stables.get((cond.m1, cond.m2))
        stable_check = None
        if stable_cond is not None:
            # The tier is part of the cache label (informative, never
            # decision-relevant: every tier admits identically).
            stable_check = compiled_pair(
                spec, spec_fp, stable_cond,
                f"stable:{getattr(stable_cond, 'tier', 'weakened')}", ctx)
        row[cond.m1] = PairPlan(
            spec.operations[cond.m1], spec.operations[cond.m2], cond,
            compiled_pair(spec, spec_fp, cond, "between", ctx),
            stable_cond, stable_check)
    return plans
