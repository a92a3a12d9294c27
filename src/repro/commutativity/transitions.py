"""The transition table: each operation step of a spec runs once per run.

The bounded verifier's generated testing methods (Figures 2-2, 3-1,
4-1) run ``m1; m2`` from every in-scope state and argument pair, then
the reverse order to decide whether the pair commutes.  Across a
verification run the same steps recur many times: every condition
kind of a pair shares one enumeration, and one ordered pair's reverse
executions are the opposite pair's forward ones.  A
:class:`TransitionTable` runs each step once:

- states are interned to ids (equal states share one id, so comparing
  two final states is comparing two ints);
- each ``(operation, state id, arguments)`` maps to ``(post-state id,
  result)``, or to ``None`` where the precondition does not hold;
- entries fill on first use, mid-states outside the enumeration (an
  ArrayList grown past the scope bound) included.

:meth:`TransitionTable.cases` is
:func:`~repro.commutativity.bounded.enumerate_cases` with each case's
:func:`~repro.commutativity.bounded.commutes` verdict, both answered by
lookups, in the same order.  The stability re-verifier
(:func:`repro.stability.quantified.check_pair`), the native prover's
case stream (:func:`repro.prover.native.prove_pair`) and the condition
synthesizer read it.  The bounded checker walks the same rows in the
same order in a function generated per operation pair
(:func:`repro.commutativity.bounded.pair_loop`), which decides the
reverse order as :func:`reverse_commutes` does; the table keeps those
functions for its run (:attr:`TransitionTable.loops`).

**Lifetime.**  A table lives for one engine run: the serial path of
:meth:`repro.engine.runner.ParallelRunner.run` enters
:func:`transition_run`, and each pool worker enters a run for the life
of its pool.  It is dropped when the run returns, and the generated
pair functions with it.  No spec or report refers to a table, and no
table outlives its run, so nothing a run computed is served to a later
one; a caller outside any run gets a table of its own for the call.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, NamedTuple

from ..eval.enumeration import Scope
from ..eval.values import Record
from ..specs.interface import DataStructureSpec, Operation


class Case(NamedTuple):
    """One first-order execution of ``m1(args1); m2(args2)`` (Figure 4-1).

    A named tuple, not a frozen dataclass: a verification pass builds
    about a hundred thousand of them, and a frozen dataclass's
    ``__init__`` sets each field through ``object.__setattr__``."""

    state: Record
    args1: tuple[Any, ...]
    args2: tuple[Any, ...]
    mid: Record
    fin: Record
    r1: Any
    r2: Any


class States(list):
    """States by id, equal states sharing one id."""

    __slots__ = ("ids",)

    def __init__(self) -> None:
        super().__init__()
        self.ids: dict[Record, int] = {}

    def intern(self, state: Record) -> int:
        """The id of ``state``."""
        sid = self.ids.get(state)
        if sid is None:
            sid = self.ids[state] = len(self)
            self.append(state)
        return sid


class Row(dict):
    """The steps of one ``op(args)``, by state id: ``(post-state id,
    result)``, or ``None`` where the precondition fails.  A step not
    yet in the row runs when it is first looked up.  A row refers to
    its spec and states, not to its table, so a table is freed as soon
    as its run drops it."""

    __slots__ = ("spec", "states", "op", "args")

    def __init__(self, spec: DataStructureSpec, states: States,
                 op: Operation, args: tuple) -> None:
        super().__init__()
        self.spec = spec
        self.states = states
        self.op = op
        self.args = args

    def __missing__(self, sid: int) -> tuple[int, Any] | None:
        state = self.states[sid]
        if self.spec.precondition_holds(self.op, state, self.args):
            post, result = self.op.semantics(state, self.args)
            step = (self.states.intern(post), result)
        else:
            step = None
        self[sid] = step
        return step


def reverse_commutes(row1: Row, row2: Row, sid: int, fin: int,
                     r1: Any, r2: Any) -> bool:
    """Whether ``row2``'s step then ``row1``'s from state ``sid`` is
    defined, returns ``r1`` and ``r2`` where the operations return a
    value, and ends in state ``fin``: the reverse order of a case."""
    step = row2[sid]
    if step is None:
        return False
    mid_b, r2_b = step
    step = row1[mid_b]
    if step is None:
        return False
    fin_b, r1_b = step
    if row1.op.result_sort is not None and r1 != r1_b:
        return False
    if row2.op.result_sort is not None and r2 != r2_b:
        return False
    return fin == fin_b


class TransitionTable:
    """Every step of one spec's operations that a run has asked for."""

    def __init__(self, spec: DataStructureSpec) -> None:
        self.spec = spec
        self.states = States()
        self._rows: dict[tuple[str, tuple], Row] = {}
        #: Scope -> the enumerated states with their ids, in order.
        self._enumerations: dict[Scope, list[tuple[Record, int]]] = {}
        self._arguments: dict[tuple[str, Scope], list[tuple]] = {}
        #: The bounded checker's generated pair functions of this run
        #: (:func:`repro.commutativity.bounded.pair_loop`).
        self.loops: dict[tuple, Any] = {}

    def enumeration(self, scope: Scope) -> list[tuple[Record, int]]:
        """The scope's states, each as enumerated, with its id."""
        states = self._enumerations.get(scope)
        if states is None:
            states = self._enumerations[scope] = [
                (state, self.states.intern(state))
                for state in self.spec.states(scope)]
        return states

    def arguments(self, op: Operation, scope: Scope) -> list[tuple]:
        """The scope's argument tuples of ``op``."""
        key = (op.name, scope)
        args = self._arguments.get(key)
        if args is None:
            args = self._arguments[key] = list(
                self.spec.arguments(op, scope))
        return args

    def row(self, op: Operation, args: tuple) -> Row:
        """The steps of ``op(args)``."""
        key = (op.name, args)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = Row(self.spec, self.states, op, args)
        return row

    def rows(self, op: Operation, scope: Scope) -> list[Row]:
        """The row of each of the scope's argument tuples of ``op``."""
        return [self.row(op, args) for args in self.arguments(op, scope)]

    def cases(self, op1: Operation, op2: Operation,
              scope: Scope) -> Iterator[tuple[Case, bool]]:
        """Every first-order execution within ``scope``, with whether
        it commutes: states in enumeration order, then the first
        arguments, then the second, where both operations are
        defined."""
        states = self.states
        rows1 = self.rows(op1, scope)
        rows2 = self.rows(op2, scope)
        for state, sid in self.enumeration(scope):
            for row1 in rows1:
                step = row1[sid]
                if step is None:
                    continue
                mid, r1 = step
                for row2 in rows2:
                    step = row2[mid]
                    if step is None:
                        continue
                    fin, r2 = step
                    yield (Case(state, row1.args, row2.args, states[mid],
                                states[fin], r1, r2),
                           reverse_commutes(row1, row2, sid, fin, r1, r2))


#: Spec id -> table, for the engine run in progress (``None``: none).
_RUN: ContextVar[dict[int, TransitionTable] | None] = ContextVar(
    "transition_run", default=None)


@contextmanager
def transition_run() -> Iterator[None]:
    """One engine run: every :func:`transitions` call inside it shares
    one table per spec, and the tables are dropped on exit."""
    token = _RUN.set({})
    try:
        yield
    finally:
        _RUN.reset(token)


def start_worker_run() -> None:
    """A pool worker's run, which lasts as long as the worker."""
    _RUN.set({})


def transitions(spec: DataStructureSpec) -> TransitionTable:
    """The run's table for ``spec``; outside a run, a new table."""
    run = _RUN.get()
    if run is None:
        return TransitionTable(spec)
    table = run.get(id(spec))
    if table is None:
        # The table holds the spec, so its id is not reused meanwhile.
        table = run[id(spec)] = TransitionTable(spec)
    return table
