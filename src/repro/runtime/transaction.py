"""Speculative transactions with inverse-based rollback (Section 1.3).

A transaction executes operations against the shared concrete structure
and keeps an undo log of (operation, arguments, return value).  On abort
the log is replayed backwards through the verified inverse operations:
the abstract state is restored exactly, even though the concrete state
may differ (the property Table 5.10 verifies)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..impls import invoke
from ..inverses.catalog import ArgKind, Guard, InverseSpec


class TxnStatus(enum.Enum):
    RUNNING = "running"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class UndoEntry:
    op_name: str
    args: tuple[Any, ...]
    result: Any


@dataclass
class Transaction:
    """One speculative transaction over a shared structure."""

    txn_id: int
    ops: list[tuple[str, tuple[Any, ...]]]
    status: TxnStatus = TxnStatus.RUNNING
    next_op: int = 0
    undo_log: list[UndoEntry] = field(default_factory=list)
    aborts: int = 0
    results: list[Any] = field(default_factory=list)
    #: Earliest time this transaction may be rescheduled (scheduling
    #: rounds when serial, ``time.monotonic()`` when threaded); set by
    #: the backoff contention controller, ignored otherwise.
    backoff_until: float = 0.0

    @property
    def finished(self) -> bool:
        return self.next_op >= len(self.ops)

    @property
    def age(self) -> int:
        """Priority for wait-die ordering: transactions are numbered in
        submission order, so a lower id is an older transaction."""
        return self.txn_id

    def current_op(self) -> tuple[str, tuple[Any, ...]]:
        return self.ops[self.next_op]

    @property
    def ever_aborted(self) -> bool:
        return self.aborts > 0

    def record(self, op: Any, args: tuple[Any, ...], raw_result: Any,
               visible_result: Any) -> None:
        """Log one executed operation and advance the program counter.

        The undo log keys entries by the operation's *base* name
        (``add_`` logs as ``add``) so :func:`rollback`'s inverse lookup
        matches Table 5.10, and stores the raw concrete return value the
        inverse needs even when the client discards it.
        """
        self.results.append(visible_result)
        if op.mutator:
            self.undo_log.append(
                UndoEntry(op.base_name or op.name, args, raw_result))
        self.next_op += 1

    def mark_aborted(self) -> None:
        """Discard all speculative progress and flag the transaction
        :data:`TxnStatus.ABORTED` until the scheduler restarts it."""
        self.aborts += 1
        self.next_op = 0
        self.undo_log.clear()
        self.results.clear()
        self.status = TxnStatus.ABORTED

    def restart(self) -> None:
        """Begin the retry of an aborted transaction."""
        self.status = TxnStatus.RUNNING

    def reset_for_retry(self) -> None:
        """Abort and immediately restart (back-compat single step)."""
        self.mark_aborted()
        self.restart()


def rollback(impl: Any, family: str, undo_log: list[UndoEntry],
             registry=None) -> list[tuple[str, tuple[Any, ...]]]:
    """Undo all logged mutations, most recent first, using the verified
    inverse operations of Table 5.10.  Returns the ``(operation,
    arguments)`` calls it applied, in order."""
    applied: list[tuple[str, tuple[Any, ...]]] = []
    for op_name, args in undo_calls(family, undo_log, registry):
        invoke(impl, op_name, args)
        applied.append((op_name, args))
    undo_log.clear()
    return applied


def undo_calls(family: str, undo_log: list[UndoEntry],
               registry=None) -> Iterator[tuple[str, tuple[Any, ...]]]:
    """The ``(operation, arguments)`` calls that undo ``undo_log``,
    most recent entry first, through the verified inverses.
    :func:`rollback` invokes them on a concrete structure; the
    admission server applies them to the abstract state it keeps for a
    client, so both undo an abort by the same calls."""
    from ..api import resolve_registry
    registry = resolve_registry(registry)
    spec = registry.spec(family)
    for entry in reversed(undo_log):
        op = spec.operations[entry.op_name]
        inverse = registry.inverse(family, op.base_name or op.name)
        yield from resolve_inverse_calls(inverse, op, entry.args,
                                         entry.result)


def resolve_inverse_calls(inverse: InverseSpec, op: Any,
                          args: tuple[Any, ...],
                          result: Any) -> list[tuple[str, tuple[Any, ...]]]:
    """The concrete ``(operation, arguments)`` calls an abort would make
    to undo one execution of ``op(args) -> result`` — the inverse
    program with its guard decided and its arguments bound.  Shared by
    :func:`rollback` and by the gatekeeper's undo-commutation guard
    (which must reason about these exact calls *before* any abort
    happens)."""
    params = {p.name: v for p, v in zip(op.params, args)}
    if inverse.guard is Guard.NONE:
        selected = inverse.then
    elif inverse.guard is Guard.RESULT_TRUE:
        selected = inverse.then if result else ()
    else:
        selected = inverse.then if result is not None else inverse.els
    calls: list[tuple[str, tuple[Any, ...]]] = []
    for call in selected:
        call_args = []
        for arg in call.args:
            if arg.kind is ArgKind.PARAM:
                call_args.append(params[arg.name])
            elif arg.kind is ArgKind.NEG_PARAM:
                call_args.append(-params[arg.name])
            else:
                call_args.append(result)
        calls.append((call.op, tuple(call_args)))
    return calls
