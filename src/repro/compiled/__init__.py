"""repro.compiled — the compiled admission hot path.

Lowers admission formulas (catalog between conditions and armed
drift-stable conditions) at arm time over the gatekeeper's pair slot
layout into generated Python functions, each compiled on its first
evaluation, caches the checks process-wide by content fingerprint,
resolves each ordered operation pair into one plan per registry arming
(:mod:`repro.compiled.admission`), and keeps an interpreted fallback so
decisions stay byte-identical.  The compiler itself is
:mod:`repro.logic.compile`, which the offline verifiers use too;
:mod:`repro.compiled.lowering` declares the pair layout and the
semantics contract of admission checks.
"""

from ..logic.compile import CompileError
from .admission import PairPlan, armed
from .cache import cache_size, clear_cache, compiled_pair, pair_cache_key
from .lowering import (ADMISSION_COMPILER_VERSION, LoweredCheck,
                       SlotMismatch, lower_pair_condition, pair_scope)

__all__ = [
    "ADMISSION_COMPILER_VERSION",
    "CompileError",
    "LoweredCheck",
    "PairPlan",
    "SlotMismatch",
    "armed",
    "cache_size",
    "clear_cache",
    "compiled_pair",
    "lower_pair_condition",
    "pair_cache_key",
    "pair_scope",
]
