"""The process-global compiled-pair cache.

The executor builds a fresh conflict manager per run, but a pair's
lowered closure depends only on content — the spec fingerprint, the
formula text, the compiler versions (see
:func:`repro.engine.fingerprint.compiled_admission_fingerprint`) — so
closures are shared process-wide under a content-addressed key.  A
bench sweep that runs the same structure hundreds of times lowers each
pair exactly once.

Sharing is sound for the same reason the ``.repro-cache`` result cache
is: identical fingerprints mean identical lowering inputs, so the
cached closure behaves identically to a fresh one.  The adaptive
disjunct counters inside a shared closure are cross-run state by
design — hit-rate learning carries over — and are decision-neutral
(see :class:`~repro.logic.compile._AdaptiveOr`).

A pair the lowerer cannot handle is cached as uncompilable, so the
``CompileError`` is paid once and every later manager takes the
interpreted fallback without re-raising.
"""

from __future__ import annotations

import threading

from ..engine.fingerprint import (compiled_admission_fingerprint,
                                  stable_hash)
from ..logic.compile import CompileError
from .lowering import LoweredCheck, lower_pair_condition

#: Sentinel for pairs the lowerer refused (cached misses stay misses).
UNCOMPILABLE = None

_PAIR_CACHE: dict[str, LoweredCheck | None] = {}
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


def cache_size() -> int:
    with _CACHE_LOCK:
        return len(_PAIR_CACHE)


def clear_cache() -> None:
    """Drop every cached closure (tests; never needed in production —
    content addressing makes stale entries unreachable, not wrong)."""
    with _CACHE_LOCK:
        _PAIR_CACHE.clear()
