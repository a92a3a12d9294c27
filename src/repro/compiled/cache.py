"""The compiled-pair cache and the per-registry armings.

The executor builds a fresh conflict manager per run, but a pair's
lowered check depends only on content — the spec fingerprint, the
formula text, the compiler versions (see
:func:`repro.engine.fingerprint.compiled_admission_fingerprint`) — so
checks are shared process-wide under a content-addressed key.  A
bench sweep that runs the same structure hundreds of times lowers each
pair exactly once, and compiles it at most once, on its first
evaluation.

Sharing is sound for the same reason the ``.repro-cache`` result cache
is: identical fingerprints mean identical lowering inputs, so the
cached check behaves identically to a fresh one.  A compiled check
keeps no state between evaluations.

A pair the lowerer cannot handle is cached as uncompilable, so the
``CompileError`` is paid once and every later manager takes the
interpreted fallback without re-raising.

On top of the checks, each registry keeps one *arming* per structure
family and stable flag: the pair plans of
:func:`repro.compiled.admission.armed`, which every conflict manager
of that family shares instead of re-deriving each pair's cache key
per run.  Armings are keyed weakly by registry, so they live as long
as the registry and never keep it alive.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable

from ..engine.fingerprint import (compiled_admission_fingerprint,
                                  stable_hash)
from ..logic.compile import CompileError
from .lowering import LoweredCheck, lower_pair_condition

#: Sentinel for pairs the lowerer refused (cached misses stay misses).
UNCOMPILABLE = None

_PAIR_CACHE: dict[str, LoweredCheck | None] = {}
#: Registry -> {(family, stable): arming}.
_ARMINGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_CACHE_LOCK = threading.Lock()


def pair_cache_key(spec_fp, cond, label: str, ctx) -> str:
    """The content address of one (structure, m1, m2) compiled check."""
    return stable_hash(
        compiled_admission_fingerprint(spec_fp, cond, label, ctx))


def compiled_pair(spec, spec_fp, cond, label: str,
                  ctx) -> LoweredCheck | None:
    """The lowered check for ``cond`` on ``spec``'s pair
    ``(cond.m1, cond.m2)``, from the global cache; ``None`` when the
    formula is uncompilable (callers use the interpreter).

    ``cond`` is anything with ``family``/``m1``/``m2``/``text`` and a
    ``dynamic_formula`` — both
    :class:`~repro.commutativity.conditions.CommutativityCondition`
    and :class:`~repro.stability.compiler.StableCondition` qualify.
    """
    key = pair_cache_key(spec_fp, cond, label, ctx)
    with _CACHE_LOCK:
        try:
            return _PAIR_CACHE[key]
        except KeyError:
            pass
    # Lower outside the lock: parsing + lowering can be slow, and a
    # duplicate lowering of the same content is idempotent.
    op1 = spec.operations[cond.m1]
    op2 = spec.operations[cond.m2]
    try:
        check = lower_pair_condition(cond.dynamic_formula, op1, op2, ctx)
    except CompileError:
        check = UNCOMPILABLE
    with _CACHE_LOCK:
        return _PAIR_CACHE.setdefault(key, check)


def shared_arming(registry, family: str, stable: bool,
                  arm: Callable[[], Any]) -> Any:
    """``registry``'s arming of ``family`` (with its drift-stable
    conditions when ``stable``), built by ``arm()`` on first use."""
    key = (family, stable)
    with _CACHE_LOCK:
        armings = _ARMINGS.get(registry)
        if armings is not None and key in armings:
            return armings[key]
    # Arm outside the lock, like a lowering: arming the same content
    # twice is idempotent.
    arming = arm()
    with _CACHE_LOCK:
        return _ARMINGS.setdefault(registry, {}).setdefault(key, arming)


def disarm(registry, family: str) -> None:
    """Drop ``registry``'s armings of ``family``; the registry calls it
    whenever the family's conditions or stable conditions are
    registered, so no manager arms from a replaced catalog."""
    with _CACHE_LOCK:
        armings = _ARMINGS.get(registry)
        if armings:
            armings.pop((family, False), None)
            armings.pop((family, True), None)


def cache_size() -> int:
    with _CACHE_LOCK:
        return len(_PAIR_CACHE)


def clear_cache() -> None:
    """Drop every cached check and every registry's armings, so the
    next manager arms from scratch as a fresh process would (tests and
    benchmarks; never needed in production — content addressing makes
    stale checks unreachable, not wrong, and re-registration drops
    stale armings)."""
    with _CACHE_LOCK:
        _PAIR_CACHE.clear()
        _ARMINGS.clear()
