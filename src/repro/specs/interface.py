"""Abstract data-structure specifications.

A :class:`DataStructureSpec` is the Python analogue of a Jahob interface
(Figure 2-1): named abstract state fields, and operations with a
precondition formula and a postcondition formula relating old state, new
state, and result.

The postcondition is the ground truth.  Spec construction generates
each operation's executable semantics from it
(:func:`repro.logic.compile.compile_semantics`), and a discard variant's
from its base operation's, so the verifiers, the runtime's kept states
and the serial replay all run what the postconditions say; the same
functions run over the symbolic states of :mod:`repro.solver`.  An
operation without a postcondition passes hand-written ``semantics``
instead.  The test suite checks each postcondition against the
semantics through the interpreter, and the concrete linked
implementations against the semantics, mirroring the paper's reliance
on *verified* implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..eval.enumeration import Scope
from ..eval.interpreter import EvalContext, evaluate
from ..eval.values import Record
from ..logic import parse_formula
from ..logic.compile import compile_semantics, compile_term
from ..logic.sorts import Sort
from ..logic.symbols import SymbolTable
from ..logic import terms as t

#: Executable abstract semantics: (state, args) -> (new_state, result).
Semantics = Callable[[Record, tuple[Any, ...]], tuple[Record, Any]]


class PreconditionError(ValueError):
    """Raised when an operation is applied outside its precondition."""


@dataclass(frozen=True)
class Param:
    name: str
    sort: Sort


@dataclass
class Operation:
    """One specified operation of a data structure."""

    name: str
    params: tuple[Param, ...]
    result_sort: Sort | None
    precondition: t.Term
    mutator: bool
    postcondition: t.Term | None = None
    #: ``(state, args) -> (new_state, result)``.  Given only for an
    #: operation without a postcondition; spec construction generates
    #: it from the postcondition otherwise.
    semantics: Semantics | None = None
    #: The operation this one is the discard variant of (``add_`` -> ``add``).
    base_name: str | None = None

    @property
    def discards_result(self) -> bool:
        return self.base_name is not None

    @property
    def has_result(self) -> bool:
        return self.result_sort is not None


@dataclass
class DataStructureSpec:
    """A specified abstract data structure."""

    name: str
    state_fields: dict[str, Sort]
    principal_field: str
    operations: dict[str, Operation]
    initial_state: Record
    #: Representation invariant over the abstract state (e.g. ``size``
    #: equals the cardinality of ``contents``).
    invariant: Callable[[Record], bool]
    #: Enumerate all abstract states within a scope.
    states: Callable[[Scope], Iterator[Record]]
    #: Enumerate all argument tuples for an operation within a scope.
    arguments: Callable[[Operation, Scope], Iterator[tuple[Any, ...]]]
    #: Operation name -> (operation, its precondition, the compiled
    #: precondition); filled on first use.  Not an input: kept out of
    #: ``__init__``, ``repr``, equality and every fingerprint.
    _preconditions: dict[str, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Generate each operation's semantics from its postcondition, a
        discard variant's from its base operation's; an operation
        without either keeps the semantics it passes."""
        for op in self.operations.values():
            where = f"{self.name}.{op.name}"
            # A function generated for a spec built earlier is not given.
            given = None if hasattr(op.semantics, "generated_source") \
                else op.semantics
            post = op.postcondition
            base = self.operations.get(op.base_name)
            if post is None and given is None and base is not None:
                post = base.postcondition
            if post is not None and given is not None:
                raise ValueError(
                    f"{where} passes both a postcondition and semantics")
            if post is None and given is None:
                raise ValueError(
                    f"{where} has neither a postcondition nor semantics")
            if post is not None:
                try:
                    op.semantics = compile_semantics(
                        post, tuple(self.state_fields),
                        tuple(param.name for param in op.params),
                        op.result_sort is not None,
                        EvalContext(observe=self.observe))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None

    # -- symbol tables -------------------------------------------------------

    def observer_signatures(self) -> dict[str, tuple[tuple[Sort, ...], Sort]]:
        """Signatures of the pure operations, usable as observers."""
        sigs: dict[str, tuple[tuple[Sort, ...], Sort]] = {}
        for op in self.operations.values():
            if not op.mutator and op.result_sort is not None:
                sigs[op.name] = (tuple(p.sort for p in op.params),
                                 op.result_sort)
        return sigs

    def symbols(self, extra_vars: dict[str, Sort] | None = None) -> SymbolTable:
        """A symbol table for parsing formulas against this spec."""
        return SymbolTable(
            vars=dict(extra_vars or {}),
            state_fields=dict(self.state_fields),
            observers=self.observer_signatures(),
            principal_field=self.principal_field,
        )

    # -- execution -----------------------------------------------------------

    def precondition_holds(self, op: Operation, state: Record,
                           args: tuple[Any, ...]) -> bool:
        """Evaluate ``op``'s precondition on ``state`` and ``args``
        through a function compiled once per operation over the layout
        ``s`` then the parameters, which decides (and raises
        ``EvalError``) exactly as the interpreter does.  A call whose
        arity does not fit the layout is interpreted instead, which
        tolerates the mismatch the way :func:`zip` does."""
        if len(args) != len(op.params):
            env: dict[str, Any] = {"s": state}
            env.update(zip((param.name for param in op.params), args))
            return bool(evaluate(op.precondition, env,
                                 EvalContext(observe=self.observe)))
        entry = self._preconditions.get(op.name)
        if entry is None or entry[0] is not op \
                or entry[1] is not op.precondition:
            # Racing threads store equivalent functions: benign.
            names = ("s", *(param.name for param in op.params))
            entry = (op, op.precondition,
                     compile_term(op.precondition, names,
                                  EvalContext(observe=self.observe)))
            self._preconditions[op.name] = entry
        return bool(entry[2]([state, *args]))

    def execute(self, op: Operation, state: Record,
                args: tuple[Any, ...]) -> tuple[Record, Any]:
        """Run ``op``; raises :class:`PreconditionError` outside its pre."""
        if not self.precondition_holds(op, state, args):
            raise PreconditionError(
                f"{self.name}.{op.name}{args!r} precondition violated")
        new_state, result = op.semantics(state, args)
        return new_state, result

    def observe(self, state: Record, method: str,
                args: tuple[Any, ...]) -> Any:
        """Dispatch a pure observer call (used by the interpreter)."""
        op = self.operations[method]
        if op.mutator:
            raise ValueError(f"{method} is a mutator, not an observer")
        _, result = op.semantics(state, args)
        return result


def parse_pre(text: str, state_fields: dict[str, Sort],
              params: tuple[Param, ...],
              observers: dict[str, tuple[tuple[Sort, ...], Sort]],
              principal_field: str) -> t.Term:
    """Parse a precondition over state var ``s`` and the parameters."""
    table = SymbolTable(
        vars={"s": Sort.STATE, **{p.name: p.sort for p in params}},
        state_fields=state_fields,
        observers=observers,
        principal_field=principal_field,
    )
    return parse_formula(text, table)


def parse_post(text: str, state_fields: dict[str, Sort],
               params: tuple[Param, ...], result_sort: Sort | None,
               observers: dict[str, tuple[tuple[Sort, ...], Sort]],
               principal_field: str) -> t.Term:
    """Parse a postcondition.

    Vocabulary: ``old_<field>`` for the pre-state fields, ``<field>`` for
    the post-state fields, the parameters, and ``result``.
    """
    variables: dict[str, Sort] = {p.name: p.sort for p in params}
    for fname, fsort in state_fields.items():
        variables[fname] = fsort
        variables[f"old_{fname}"] = fsort
    if result_sort is not None:
        variables["result"] = result_sort
    table = SymbolTable(vars=variables, state_fields=state_fields,
                        observers=observers, principal_field=principal_field)
    return parse_formula(text, table)
