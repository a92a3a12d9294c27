"""The symbolic commutativity verification engine.

This backend plays the role Jahob's integrated provers play in the paper:
it establishes soundness and completeness of commutativity conditions for
*unbounded* initial states.  The decision procedure is theory-guided case
enumeration:

- the object symbols mentioned by the pair's arguments (and, for maps,
  the unknown base bindings) are partitioned into equality classes —
  exact because the fragment is invariant under injective renaming
  (:mod:`repro.solver.partition`);
- the base collection is a symbolic region: only the membership/binding
  of the mentioned classes plus a symbolic size ``N + delta`` are tracked
  (:mod:`repro.solver.symbolic`);
- both operation orders are executed by the operations' own semantics,
  the functions generated from their postconditions, over these
  symbolic states, and the bounded checker
  (:func:`repro.commutativity.bounded.check_conditions`) evaluates the
  conditions per case; soundness and completeness reduce to per-case
  boolean checks (Properties 1-2).

For the ArrayList, element universes are handled by the same partition
argument (exact for unbounded universes) while sequence *length* is
enumerated up to the scope bound — the honest deviation recorded in
DESIGN.md and EXPERIMENTS.md.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from ..commutativity.bounded import CheckResult, check_conditions, executions
from ..commutativity.conditions import CommutativityCondition
from ..eval.enumeration import Scope
from ..eval.values import FMap, Record
from ..specs.interface import DataStructureSpec, Operation
from .partition import partitions
from .symbolic import SymInt, SymMap, SymSet

#: Canonical integer arguments: cover zero / positive / negative cases.
CANONICAL_INTS = (-1, 0, 1, 2)


# ---------------------------------------------------------------------------
# Case enumeration per family
# ---------------------------------------------------------------------------

def _obj_symbols(op1: Operation, op2: Operation,
                 sort_name: str = "obj") -> list[str]:
    syms = []
    for op, suffix in ((op1, "1"), (op2, "2")):
        for p in op.params:
            if p.sort.value == sort_name:
                syms.append(f"{p.name}{suffix}")
    return syms


def _args_from_tokens(op: Operation, suffix: str,
                      tokens: dict[str, str]) -> tuple[Any, ...]:
    return tuple(tokens[f"{p.name}{suffix}"] for p in op.params)


def set_cases(op1: Operation, op2: Operation) \
        -> Iterator[tuple[Record, tuple[Any, ...], tuple[Any, ...]]]:
    """Symbolic initial states/arguments for a set-family pair."""
    syms = _obj_symbols(op1, op2)
    for part in partitions(tuple(syms)):
        tokens = {sym: f"c{cls}" for sym, cls in part.items()}
        classes = sorted(set(tokens.values()))
        for bits in itertools.product((False, True), repeat=len(classes)):
            membership = FMap(dict(zip(classes, bits)))
            state = Record(contents=SymSet(membership),
                           size=SymInt("N", 0))
            yield (state, _args_from_tokens(op1, "1", tokens),
                   _args_from_tokens(op2, "2", tokens))


def map_cases(op1: Operation, op2: Operation) \
        -> Iterator[tuple[Record, tuple[Any, ...], tuple[Any, ...]]]:
    """Symbolic initial states/arguments for a map-family pair.

    Key tokens and value tokens live in separate namespaces (no
    operation or condition ever compares a key with a value); unknown
    base bindings are "fresh" tokens whose mutual equality is itself
    enumerated by partitioning.
    """
    key_syms = []
    val_syms = []
    for op, suffix in ((op1, "1"), (op2, "2")):
        for p in op.params:
            name = f"{p.name}{suffix}"
            if p.name == "k":
                key_syms.append(name)
            else:
                val_syms.append(name)
    for kpart in partitions(tuple(key_syms)):
        ktokens = {sym: f"k{cls}" for sym, cls in kpart.items()}
        kclasses = sorted(set(ktokens.values()))
        for vpart in partitions(tuple(val_syms)):
            vtokens = {sym: f"w{cls}" for sym, cls in vpart.items()}
            vclasses = sorted(set(vtokens.values()))
            options = ["absent", "fresh"] + vclasses
            for choice in itertools.product(options, repeat=len(kclasses)):
                fresh_keys = [kc for kc, tag in zip(kclasses, choice)
                              if tag == "fresh"]
                for fpart in partitions(tuple(fresh_keys)):
                    binding: dict[str, str] = {}
                    for kc, tag in zip(kclasses, choice):
                        if tag == "absent":
                            continue
                        binding[kc] = (f"f{fpart[kc]}" if tag == "fresh"
                                       else tag)
                    state = Record(
                        contents=SymMap(FMap(binding),
                                        frozenset(kclasses)),
                        size=SymInt("N", 0))
                    tokens = {**ktokens, **vtokens}
                    yield (state, _args_from_tokens(op1, "1", tokens),
                           _args_from_tokens(op2, "2", tokens))


def accumulator_cases(op1: Operation, op2: Operation) \
        -> Iterator[tuple[Record, tuple[Any, ...], tuple[Any, ...]]]:
    """Symbolic cases: opaque initial value, canonical increments."""
    domains1 = [CANONICAL_INTS for _ in op1.params]
    domains2 = [CANONICAL_INTS for _ in op2.params]
    state = Record(value=SymInt("N", 0))
    for args1 in itertools.product(*domains1):
        for args2 in itertools.product(*domains2):
            yield state, args1, args2


def arraylist_cases(op1: Operation, op2: Operation, max_len: int) \
        -> Iterator[tuple[Record, tuple[Any, ...], tuple[Any, ...]]]:
    """Canonical cases: partition elements + object args; enumerate
    index args concretely (preconditions filter later)."""
    obj_syms = _obj_symbols(op1, op2)
    for n in range(max_len + 1):
        elem_syms = [f"e{j}" for j in range(n)]
        for part in partitions(tuple(elem_syms + obj_syms)):
            tokens = {sym: f"c{cls}" for sym, cls in part.items()}
            elems = tuple(tokens[e] for e in elem_syms)
            state = Record(elems=elems, size=n)
            index_range = tuple(range(n + 1))

            def arg_domains(op: Operation, suffix: str) -> list[tuple]:
                domains: list[tuple] = []
                for p in op.params:
                    if p.sort.value == "int":
                        domains.append(index_range)
                    else:
                        domains.append((tokens[f"{p.name}{suffix}"],))
                return domains

            for args1 in itertools.product(*arg_domains(op1, "1")):
                for args2 in itertools.product(*arg_domains(op2, "2")):
                    yield state, args1, args2


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def _family_cases(spec: DataStructureSpec, scope: Scope):
    """The family's symbolic case generator over an operation pair."""
    if spec.name == "Set":
        return set_cases
    if spec.name == "Map":
        return map_cases
    if spec.name == "Accumulator":
        return accumulator_cases
    if spec.name == "ArrayList":
        def cases(op1: Operation, op2: Operation):
            return arraylist_cases(op1, op2, scope.max_seq_len)
        return cases
    raise ValueError(f"no symbolic tooling for family {spec.name!r}")


def check_condition_symbolic(spec: DataStructureSpec,
                             cond: CommutativityCondition,
                             scope: Scope | None = None,
                             max_counterexamples: int = 3) -> CheckResult:
    """Verify soundness and completeness of one condition symbolically."""
    return check_conditions_symbolic(spec, [cond], scope,
                                     max_counterexamples)[0]


def check_conditions_symbolic(spec: DataStructureSpec,
                              conditions: list[CommutativityCondition],
                              scope: Scope | None = None,
                              max_counterexamples: int = 3) \
        -> list[CheckResult]:
    """Verify several conditions of one pair: the bounded checker over
    the family's symbolic cases, executed by the operations' own
    semantics."""
    scope = scope or Scope()
    op1, op2 = conditions[0].op1, conditions[0].op2
    starts = _family_cases(spec, scope)(op1, op2)
    return check_conditions(spec, conditions, scope, max_counterexamples,
                            cases=executions(spec, op1, op2, starts))
