"""Commutativity conditions (Chapter 4).

A :class:`CommutativityCondition` packages, for an ordered pair of
operations ``m1(args1); m2(args2)`` on one data structure, a *kind*
(before / between / after, Section 4.1.2) and a logical formula over the
vocabulary that kind permits:

- **before**: the arguments and the initial abstract state ``s1``;
- **between**: additionally the first return value ``r1`` and the
  intermediate abstract state ``s2``;
- **after**: additionally the second return value ``r2`` and the final
  abstract state ``s3``.

Argument naming: the parameters of ``m1`` are suffixed with ``1``
(``v -> v1``, ``i -> i1``, ``k -> k1``) and those of ``m2`` with ``2``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from ..logic import free_vars, parse_formula
from ..logic.sorts import Sort
from ..logic.symbols import SymbolTable
from ..logic import terms as t
from ..specs.interface import DataStructureSpec, Operation


class Kind(enum.Enum):
    """When a commutativity condition can be evaluated (Section 4.1.2)."""

    BEFORE = "before"
    BETWEEN = "between"
    AFTER = "after"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Abstract-state variables a condition formula may mention.  Formulas
#: over arguments and return values only were verified to match the
#: commute relation in *every* enumerated state, so their verdict
#: transfers to any runtime context; formulas mentioning any of these
#: are only trusted in the exact environment they were verified for
#: (see the drift guard in :mod:`repro.runtime.gatekeeper` and the
#: stability compiler in :mod:`repro.stability`).
STATE_VARS = frozenset({"s1", "s2", "s3"})


def formula_references_state(term: t.Term) -> bool:
    """Whether a formula mentions any abstract-state variable."""
    return bool(STATE_VARS & free_vars(term))


class VocabularyError(ValueError):
    """A condition references variables its kind does not permit."""


def suffixed_params(op: Operation, suffix: str) -> dict[str, Sort]:
    """Parameter names of ``op`` with an order suffix (``v`` -> ``v1``)."""
    return {f"{p.name}{suffix}": p.sort for p in op.params}


def pair_layout(m1: Operation, m2: Operation, *states: str) -> list[str]:
    """A slot layout (see :func:`repro.logic.compile.compile_term`) over
    a pair's vocabulary: the given state variables, the suffixed
    parameters, then ``r1`` when ``m1`` returns a value."""
    names = [*states, *suffixed_params(m1, "1"), *suffixed_params(m2, "2")]
    if m1.result_sort is not None:
        names.append("r1")
    return names


def condition_symbols(spec: DataStructureSpec, m1: Operation,
                      m2: Operation) -> SymbolTable:
    """The full (after-kind) symbol table for a pair's conditions."""
    variables: dict[str, Sort] = {
        "s1": Sort.STATE, "s2": Sort.STATE, "s3": Sort.STATE,
    }
    variables.update(suffixed_params(m1, "1"))
    variables.update(suffixed_params(m2, "2"))
    if m1.result_sort is not None:
        variables["r1"] = m1.result_sort
    if m2.result_sort is not None:
        variables["r2"] = m2.result_sort
    return spec.symbols(variables)


def allowed_variables(kind: Kind, m1: Operation, m2: Operation) -> frozenset[str]:
    """Free variables a condition of ``kind`` may mention (Section 4.1.2)."""
    allowed = set(suffixed_params(m1, "1")) | set(suffixed_params(m2, "2"))
    allowed.add("s1")
    if kind in (Kind.BETWEEN, Kind.AFTER):
        allowed.add("s2")
        if m1.result_sort is not None:
            allowed.add("r1")
    if kind is Kind.AFTER:
        allowed.add("s3")
        if m2.result_sort is not None:
            allowed.add("r2")
    return frozenset(allowed)


@dataclass
class CommutativityCondition:
    """A developer-specified commutativity condition for one ordered pair."""

    family: str
    m1: str
    m2: str
    kind: Kind
    #: Formula text over the abstract state (Tables 5.1-5.7, third column).
    text: str
    #: Optional formula usable for dynamic checks against a concrete
    #: structure (Tables 5.1-5.7, fourth column); defaults to ``text``.
    dynamic_text: str | None = None
    spec: DataStructureSpec = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.spec is None:
            raise ValueError("CommutativityCondition requires a spec")
        self._validate_vocabulary()

    @property
    def op1(self) -> Operation:
        return self.spec.operations[self.m1]

    @property
    def op2(self) -> Operation:
        return self.spec.operations[self.m2]

    @cached_property
    def formula(self) -> t.Term:
        """The parsed abstract-state formula."""
        table = condition_symbols(self.spec, self.op1, self.op2)
        return parse_formula(self.text, table)

    @cached_property
    def dynamic_formula(self) -> t.Term:
        """The parsed dynamically-checkable formula."""
        if self.dynamic_text is None:
            return self.formula
        table = condition_symbols(self.spec, self.op1, self.op2)
        return parse_formula(self.dynamic_text, table)

    @cached_property
    def drift_fragile(self) -> bool:
        """Whether the dynamically-checkable formula mentions abstract
        state — if so, its runtime verdict is only trustworthy in the
        environment it was verified for (the drift guard refuses it once
        the gatekeeper's state has moved on)."""
        return formula_references_state(self.dynamic_formula)

    def _validate_vocabulary(self) -> None:
        allowed = allowed_variables(self.kind, self.op1, self.op2)
        used = free_vars(self.formula)
        extra = used - allowed
        if extra:
            raise VocabularyError(
                f"{self.family} {self.m1}/{self.m2} {self.kind} condition "
                f"references {sorted(extra)} outside its vocabulary")

    @property
    def pair_label(self) -> str:
        return f"{self.m1};{self.m2}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.family}: {self.m1}; {self.m2} [{self.kind}] "
                f"{self.text}")
