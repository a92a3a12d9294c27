"""Speculative transactions with inverse-based rollback (Section 1.3).

A transaction executes operations against the shared concrete structure
and keeps an undo log: for each executed mutator, the ``(operation,
arguments)`` calls its verified inverse resolved to when it ran, from
its arguments and raw return value.  On abort the log is applied
backwards: the abstract state is restored exactly, even though the
concrete state may differ (the property Table 5.10 verifies)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from ..impls import invoke


class TxnStatus(enum.Enum):
    RUNNING = "running"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """One speculative transaction over a shared structure."""

    txn_id: int
    ops: list[tuple[str, tuple[Any, ...]]]
    status: TxnStatus = TxnStatus.RUNNING
    next_op: int = 0
    #: One undo per executed mutator, in execution order (see
    #: :meth:`~repro.api.Registry.resolve_undo`).
    undo_log: list = field(default_factory=list)
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

    def record(self, op: Any, undo: Any, visible_result: Any) -> None:
        """Log one executed operation and advance the program counter.
        A mutator's ``undo`` — the calls an abort applies — goes on the
        undo log."""
        self.results.append(visible_result)
        if op.mutator:
            self.undo_log.append(undo)
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


def rollback(impl: Any, undo_log: list) -> list[tuple[str, tuple[Any, ...]]]:
    """Undo all logged mutations on ``impl``, most recent first, by
    invoking each undo's calls, and empty the log.  Returns the
    ``(operation, arguments)`` calls it applied, in order; an undo with
    no registered inverse raises when reached (see
    :class:`~repro.inverses.NoInverse`)."""
    applied: list[tuple[str, tuple[Any, ...]]] = []
    for undo in reversed(undo_log):
        for op_name, args in undo:
            invoke(impl, op_name, args)
            applied.append((op_name, args))
    undo_log.clear()
    return applied
