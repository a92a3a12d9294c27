"""Content fingerprints for proof obligations.

The result cache is *content-addressed*: a task's key is a stable hash
of everything its outcome depends on — the specification (signatures,
formulas, and the source of the executable semantics, generated or
hand-written), the condition formulas or inverse program, the
enumeration scope, the backend, and the engine version.  Editing any
ingredient changes the key; bumping :data:`ENGINE_VERSION` retires
every previously persisted entry at once.

Two deliberate limits.  Semantics callables are fingerprinted by
*source text*: values they close over are invisible, so factories that
bake different captured state into byte-identical bodies must disable
the cache (or differ in source).  And changes to the checker backends
themselves (:mod:`repro.commutativity.bounded`, :mod:`repro.solver`)
are represented only by :data:`ENGINE_VERSION` — bump it whenever a
backend change could alter an obligation's outcome.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict
from typing import Any

from ..eval.enumeration import Scope
from ..logic.printer import pretty

#: Bump whenever a change to the verification engine could alter the
#: outcome (or recorded shape) of a previously proven obligation.
ENGINE_VERSION = 1


def stable_hash(payload: Any) -> str:
    """SHA-256 of the canonical JSON rendering of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _callable_source(fn: Any) -> str:
    """Source text of a semantics function — for one generated from a
    postcondition, the generated source — or a stable module-qualified
    name when source is unavailable (builtins, C extensions, partials,
    REPL definitions).  Never anything embedding a memory address: that
    would change every process and make the cache silently never hit.

    Source text is the fingerprint, so state a callable *closes over*
    is invisible here — a factory that bakes different captured values
    into byte-identical function bodies must be distinguished some
    other way (different source, or a cache-disabling run).
    """
    generated = getattr(fn, "generated_source", None)
    if generated is not None:
        return generated()
    try:
        return inspect.getsource(fn)
    except (OSError, TypeError):
        module = getattr(fn, "__module__", None) or ""
        qualname = getattr(fn, "__qualname__", None)
        if qualname is not None:
            return f"{module}:{qualname}"
        # functools.partial and friends: fingerprint the wrapped
        # callable plus the bound arguments.
        func = getattr(fn, "func", None)
        if func is not None:
            return stable_hash({
                "func": _callable_source(func),
                "args": repr(getattr(fn, "args", ())),
                "keywords": repr(getattr(fn, "keywords", {})),
            })
        return f"{module}:{type(fn).__qualname__}"


def operation_fingerprint(op) -> dict[str, Any]:
    """Everything an operation contributes to an obligation's meaning."""
    return {
        "name": op.name,
        "params": [(p.name, p.sort.value) for p in op.params],
        "result": op.result_sort.value if op.result_sort else None,
        "pre": pretty(op.precondition),
        "post": (pretty(op.postcondition)
                 if op.postcondition is not None else None),
        "mutator": op.mutator,
        "base": op.base_name,
        "semantics": _callable_source(op.semantics),
    }


def spec_fingerprint(spec) -> dict[str, Any]:
    """Fingerprint of a :class:`~repro.specs.interface.DataStructureSpec`.

    Covers the abstract state shape, every operation (including the
    source of its executable semantics), and the state/argument
    enumerators — mutating any of them invalidates cached results.
    """
    return {
        "name": spec.name,
        "state_fields": sorted(
            (f, s.value) for f, s in spec.state_fields.items()),
        "principal": spec.principal_field,
        "initial": repr(spec.initial_state),
        "operations": [operation_fingerprint(op) for op in
                       sorted(spec.operations.values(),
                              key=lambda op: op.name)],
        "invariant": _callable_source(spec.invariant),
        "states": _callable_source(spec.states),
        "arguments": _callable_source(spec.arguments),
    }


def condition_fingerprint(cond) -> dict[str, Any]:
    """Fingerprint of one commutativity condition's formula content."""
    return {
        "family": cond.family,
        "m1": cond.m1,
        "m2": cond.m2,
        "kind": cond.kind.value,
        "text": cond.text,
        "dynamic_text": cond.dynamic_text,
    }


def stability_fingerprint(conditions, has_router: bool) -> dict[str, Any]:
    """Fingerprint of one stability-compilation group.

    Covers the condition formulas (candidates are derived from them),
    whether the structure has a shard router (it gates the footprint
    candidate atoms, so registering one must retire routerless
    verdicts), and the compiler version (candidate generation and the
    quantified check live outside the condition content, so their
    evolution must retire cached verdicts the way
    :data:`ENGINE_VERSION` retires proofs).
    """
    from ..stability.compiler import STABILITY_COMPILER_VERSION
    return {
        "compiler_version": STABILITY_COMPILER_VERSION,
        "has_router": bool(has_router),
        "conditions": [condition_fingerprint(c) for c in conditions],
    }


def symbolic_stability_fingerprint(conditions,
                                   has_router: bool) -> dict[str, Any]:
    """Fingerprint of one symbolic-stability (prover) group.

    The bounded group's ingredients plus the prover identity: version,
    backend name, and external-solver availability
    (:func:`repro.prover.backend.prover_fingerprint`) — so toggling
    prover internals or installing z3 retires cached proofs
    instead of serving stale ``.repro-cache`` entries.
    """
    from ..prover.backend import prover_fingerprint
    fingerprint = stability_fingerprint(conditions, has_router)
    fingerprint["prover"] = prover_fingerprint()
    return fingerprint


def abduction_fingerprint(conditions, has_router: bool) -> dict[str, Any]:
    """Fingerprint of one abduction (CEGIS) group.

    The symbolic group's ingredients — condition formulas, router
    presence, compiler version, prover identity (the loop screens
    bounded-armed candidates through the prover, so installing z3 or
    bumping the prover must retire syntheses) — plus the abduction
    version covering the atom alphabet and the lattice walk
    (:data:`repro.abduction.loop.ABDUCTION_VERSION`).  Toggling any
    layer never serves a stale synthesis from ``.repro-cache``.
    """
    from ..abduction.loop import ABDUCTION_VERSION
    fingerprint = symbolic_stability_fingerprint(conditions, has_router)
    fingerprint["abduction_version"] = ABDUCTION_VERSION
    return fingerprint


def compiled_admission_fingerprint(spec_fp: dict[str, Any] | str, cond,
                                   label: str,
                                   ctx) -> dict[str, Any]:
    """The content address of one compiled admission check (the
    per-pair check cache in :mod:`repro.compiled.cache`).

    ``spec_fp`` is the spec's fingerprint dict or its
    :func:`stable_hash` — arm time passes the pre-computed hash so the
    large spec payload is serialized once per spec, not once per pair.

    Covers the full spec fingerprint — the observer dispatcher every
    spec shares by *source* differs only through the operations it
    closes over, so the spec content is what distinguishes two
    structures' observers (the captured-state blindness contract of
    :func:`_callable_source`, resolved by fingerprinting the captured
    content instead) — plus the formula text actually lowered, the
    pair, a tier/kind label, any explicit quantifier domains on the
    evaluation context, and the compiler versions.  Bumping
    :data:`~repro.compiled.lowering.ADMISSION_COMPILER_VERSION` (or
    :data:`ENGINE_VERSION`) retires every cached check at once.
    """
    from ..compiled.lowering import ADMISSION_COMPILER_VERSION
    return {
        "engine_version": ENGINE_VERSION,
        "admission_compiler_version": ADMISSION_COMPILER_VERSION,
        "spec": spec_fp,
        "family": cond.family,
        "m1": cond.m1,
        "m2": cond.m2,
        "label": label,
        "text": getattr(cond, "dynamic_text", None) or cond.text,
        "int_domain": repr(ctx.int_domain),
        "obj_domain": repr(ctx.obj_domain),
    }


def inverse_fingerprint(inverse) -> dict[str, Any]:
    """Fingerprint of one inverse catalog entry: its undo program, the
    guard and both branches call by call (the operation, and each
    argument's kind and name)."""
    def branch(calls) -> list:
        return [[call.op, [[arg.kind.value, arg.name] for arg in call.args]]
                for call in calls]
    return {
        "family": inverse.family,
        "op": inverse.op,
        "guard": inverse.guard.value,
        "then": branch(inverse.then),
        "else": branch(inverse.els),
    }


def scope_fingerprint(scope: Scope) -> dict[str, Any]:
    return asdict(scope)


def task_key(*, kind: str, structure: str, backend: str, scope: Scope,
             spec_fp: dict[str, Any], obligations: Any,
             use_dynamic: bool = False,
             engine_version: int = ENGINE_VERSION) -> str:
    """The content address of one verification task."""
    return stable_hash({
        "engine_version": engine_version,
        "kind": kind,
        "structure": structure,
        "backend": backend,
        "use_dynamic": use_dynamic,
        "scope": scope_fingerprint(scope),
        "spec": spec_fp,
        "obligations": obligations,
    })
