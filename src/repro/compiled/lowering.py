"""The admission pair layout over the formula compiler.

The gatekeeper's hot loop evaluates one between (or drift-stable)
condition per (logged op, incoming op) pair.  A pair's environment
layout is known at arm time: ``s1``, ``s2``, the suffixed parameters of
both operations, and ``r1`` when the first operation returns.  This
module declares that layout (:func:`pair_scope`) and compiles a pair
condition over it with :func:`repro.logic.compile.lower_term`, the
repository's one formula compiler.  :meth:`LoweredCheck.check` then
builds the slot list straight from the gatekeeper's logged entry and
incoming call, so the hot loop never builds a dict or a ``Record``
view.

Compiled checks decide *exactly* as
:func:`repro.eval.interpreter.evaluate` does, including which
environments raise :class:`~repro.eval.interpreter.EvalError` and with
which message, so the gatekeeper's conservative-fallback decisions and
the per-shard ``eval_errors`` samples are the same whichever one ran.
A term the compiler refuses raises
:class:`~repro.logic.compile.CompileError` at arm time, and a call
whose arity does not fit the layout raises :class:`SlotMismatch`; the
pair or the call then stays on the interpreted path.
"""

from __future__ import annotations

from typing import Any

from ..commutativity.conditions import pair_layout
from ..eval.interpreter import EvalContext
from ..logic import terms as t
from ..logic.compile import NOT_CONST, Lowered, Slots, lower_term

#: Bump whenever a lowering change could alter a compiled check's
#: observable behaviour — part of every compiled-pair cache key (see
#: :func:`repro.engine.fingerprint.compiled_admission_fingerprint`),
#: so stale closures are never served across versions.
ADMISSION_COMPILER_VERSION = 1


class SlotMismatch(Exception):
    """The runtime arguments do not fit the compiled slot layout (an
    arity drift between the logged call and the operation signature);
    the caller must fall back to the interpreted dict environment,
    which tolerates the mismatch the same way :func:`zip` does."""


class LoweredCheck:
    """One pair's compiled admission check over the slot layout
    ``[s1, s2, *params1, *params2, r1?]`` (+ quantifier scratch slots).

    :meth:`check` is the hot-path entry: it builds the slot list
    directly from the gatekeeper's logged entry and incoming call —
    no dict, no :class:`~repro.eval.values.Record` wrapper, and no
    list at all for a folded constant — and returns exactly what the
    interpreter would."""

    __slots__ = ("fn", "n1", "n2", "has_r1", "extra", "total", "const")

    def __init__(self, lowered: Lowered, n1: int, n2: int,
                 has_r1: bool) -> None:
        self.fn, self.extra, self.total, self.const = lowered
        self.n1 = n1
        self.n2 = n2
        self.has_r1 = has_r1

    @property
    def is_const(self) -> bool:
        """The whole formula folded to a constant."""
        return self.const is not NOT_CONST

    def check(self, before: Any, current: Any, args1: tuple,
              result1: Any, args2: tuple) -> Any:
        if len(args1) != self.n1 or len(args2) != self.n2:
            raise SlotMismatch(
                f"expected {self.n1}/{self.n2} arguments, "
                f"got {len(args1)}/{len(args2)}")
        if self.const is not NOT_CONST:
            return self.const  # what ``fn`` returns on any slot list
        env: Slots = [before, current]
        env.extend(args1)
        env.extend(args2)
        if self.has_r1:
            env.append(result1)
        if self.extra:
            env.extend([None] * self.extra)
        return self.fn(env)


def pair_scope(op1, op2) -> dict[str, int]:
    """The compile-time name->slot map matching the gatekeeper's pair
    environment (:meth:`ConflictManager._pair_env`): state snapshots
    first, then the order-suffixed parameters, then ``r1`` when the
    first operation returns a value.  A name bound twice (a parameter
    ``s`` or ``r``) maps to its last slot, as the dict keeps the last
    binding."""
    return {name: slot
            for slot, name in enumerate(pair_layout(op1, op2, "s1", "s2"))}


def lower_pair_condition(term: t.Term, op1, op2,
                         ctx: EvalContext) -> LoweredCheck:
    """Lower a pair condition into a :class:`LoweredCheck` over the
    pair's slot layout, one slot per value :meth:`LoweredCheck.check`
    appends.  Raises :class:`~repro.logic.compile.CompileError` when the
    term uses a construct the compiler does not support."""
    return LoweredCheck(lower_term(term, pair_layout(op1, op2, "s1", "s2"),
                                   ctx),
                        n1=len(op1.params), n2=len(op2.params),
                        has_r1=op1.result_sort is not None)
