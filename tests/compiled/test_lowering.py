"""The lowering's semantics contract: a lowered closure returns exactly
what the interpreter returns — same verdicts, same ``EvalError``s, same
messages — across every builtin between condition and every enumerable
environment, plus the arm-time behaviors (constant folding, adaptive
disjunct reordering, ``CompileError`` refusal, ``SlotMismatch``)."""

import itertools

import pytest

from repro.api import DEFAULT_REGISTRY
from repro.commutativity.bounded import enumerate_cases
from repro.commutativity.conditions import Kind
from repro.compiled import (CompileError, SlotMismatch, armed,
                            lower_pair_condition, pair_scope)
from repro.logic.compile import _AdaptiveOr
from repro.eval import Scope
from repro.eval.interpreter import EvalContext, EvalError, evaluate
from repro.logic import terms as t
from repro.logic.sorts import Sort

BUILTINS = ("Accumulator", "ListSet", "HashSet", "AssociationList",
            "HashTable", "ArrayList")

#: Differential-test scope: small enough to sweep every pair of every
#: builtin in seconds, big enough that ArrayList index arithmetic has
#: out-of-range cases (the EvalError-equality half of the contract).
DIFF_SCOPE = Scope(objects=("a", "b"), values=("x", "y"),
                   ints=(-1, 0, 1, 2), max_seq_len=2)

#: Cases per (pair, condition): beyond this the environments repeat
#: shapes without adding coverage.
CASES_PER_PAIR = 40


def _between_conditions(name):
    return [c for c in DEFAULT_REGISTRY.conditions(name)
            if c.kind is Kind.BETWEEN]


def _pair_env(op1, op2, case):
    """The exact environment the gatekeeper's interpreted path builds
    (between vocabulary only: s1, s2, suffixed params, r1)."""
    env = {"s1": case.state, "s2": case.mid}
    for param, value in zip(op1.params, case.args1):
        env[f"{param.name}1"] = value
    for param, value in zip(op2.params, case.args2):
        env[f"{param.name}2"] = value
    if op1.result_sort is not None:
        env["r1"] = case.r1
    return env


def _outcome(thunk):
    """(verdict, error message) — exactly one side is non-None."""
    try:
        return thunk(), None
    except EvalError as exc:
        return None, str(exc)


@pytest.mark.parametrize("name", BUILTINS)
def test_lowered_checks_match_the_interpreter(name):
    spec = DEFAULT_REGISTRY.spec(name)
    ctx = EvalContext(observe=spec.observe)
    compared = 0
    for cond in _between_conditions(name):
        op1 = spec.operations[cond.m1]
        op2 = spec.operations[cond.m2]
        check = lower_pair_condition(cond.dynamic_formula, op1, op2, ctx)
        cases = itertools.islice(
            enumerate_cases(spec, op1, op2, DIFF_SCOPE), CASES_PER_PAIR)
        for case in cases:
            env = _pair_env(op1, op2, case)
            expected = _outcome(
                lambda: evaluate(cond.dynamic_formula, env, ctx))
            got = _outcome(
                lambda: check.check(case.state, case.mid, case.args1,
                                    case.r1, case.args2))
            assert got == expected, (
                f"{name} {cond.m1};{cond.m2} diverged on {env}: "
                f"interpreter {expected}, compiled {got}")
            compared += 1
    assert compared > 0


def test_every_builtin_pair_lowers():
    """No catalog condition falls back to the interpreter at arm time:
    the vocabulary of the six builtins is fully lowerable."""
    for name in BUILTINS:
        plans = [plan for row in armed(DEFAULT_REGISTRY, name,
                                       False).values()
                 for plan in row.values()]
        assert plans, name
        assert all(plan.between is not None for plan in plans), name


def test_constant_conditions_fold():
    """Accumulator's increase;increase condition is literally true:
    the lowerer folds it to a constant at arm time."""
    plans = armed(DEFAULT_REGISTRY, "Accumulator", False)
    check = plans["increase"]["increase"].between
    assert check.is_const and check.const is True


def _slot_op(name, nparams, result=None):
    from repro.specs.interface import Operation, Param
    params = tuple(Param(f"p{i}", Sort.INT) for i in range(nparams))
    return Operation(name=name, params=params, result_sort=result,
                     precondition=t.BoolConst(True),
                     semantics=lambda s, a: (s, None), mutator=False)


def test_pair_scope_layout():
    op1 = _slot_op("f", 2, result=Sort.INT)
    op2 = _slot_op("g", 1)
    scope = pair_scope(op1, op2)
    assert scope == {"s1": 0, "s2": 1, "p01": 2, "p11": 3, "p02": 4,
                     "r1": 5}


def test_colliding_names_decide_as_the_interpreter():
    """A parameter named ``r`` on a returning first operation suffixes
    to ``r1``, and one named ``s`` to ``s1`` or ``s2``.  The gatekeeper's
    interpreted environment (``ConflictManager._pair_env``) keeps the
    last binding of each name, and the compiled check must read the same
    slots, with its quantifier scratch slot past all of them."""
    from repro.specs.interface import Operation, Param

    def op(name, params, result=None):
        return Operation(
            name=name, params=tuple(Param(p, Sort.INT) for p in params),
            result_sort=result, precondition=t.BoolConst(True),
            semantics=lambda s, a: (s, None), mutator=False)

    op1 = op("f", ("r", "s"), result=Sort.INT)
    op2 = op("g", ("s",))
    before, current, args1, result1, args2 = 100, 200, (1, 2), 4, (3,)
    env = {"s1": before, "s2": current}
    env.update(r1=args1[0], s1=args1[1])  # op1's parameters, suffixed
    env.update(s2=args2[0])               # op2's
    env["r1"] = result1                   # op1's result
    r1, s1, s2 = (t.Var(name, Sort.INT) for name in ("r1", "s1", "s2"))
    i = t.Var("i", Sort.INT)
    ctx = EvalContext()
    for term in (r1, s1, s2,
                 t.Exists(i, t.And((t.Eq(i, t.Add((r1, t.IntConst(1)))),
                                    t.Lt(s2, r1)))),
                 t.Forall(i, t.Or((t.Lt(i, s1), t.Lt(t.IntConst(-9), r1))))):
        check = lower_pair_condition(term, op1, op2, ctx)
        assert check.check(before, current, args1, result1, args2) \
            == evaluate(term, env, ctx), term


def test_slot_mismatch_on_arity_drift():
    op1 = _slot_op("f", 1)
    op2 = _slot_op("g", 1)
    ctx = EvalContext()
    check = lower_pair_condition(
        t.Eq(t.Var("p01", Sort.INT), t.Var("p02", Sort.INT)), op1, op2,
        ctx)
    assert check.check(None, None, (3,), None, (3,)) is True
    with pytest.raises(SlotMismatch):
        check.check(None, None, (3, 4), None, (3,))


def test_unknown_term_raises_compile_error():
    class Mystery(t.Term):
        @property
        def sort(self):
            return Sort.BOOL

    op = _slot_op("f", 0)
    with pytest.raises(CompileError):
        lower_pair_condition(Mystery(), op, op, EvalContext())


def test_unbound_variable_matches_interpreter_message():
    """An unbound variable is a lowering-time *deferral*, not an error:
    the closure raises the interpreter's exact EvalError when called."""
    op = _slot_op("f", 0)
    formula = t.Eq(t.Var("ghost", Sort.INT), t.IntConst(0))
    check = lower_pair_condition(formula, op, op, EvalContext())
    with pytest.raises(EvalError) as compiled_exc:
        check.check(None, None, (), None, ())
    with pytest.raises(EvalError) as interp_exc:
        evaluate(formula, {}, EvalContext())
    assert str(compiled_exc.value) == str(interp_exc.value)


def test_adaptive_or_reorders_by_hit_rate():
    """A disjunction of total disjuncts re-sorts itself: after enough
    calls in which only the *last* disjunct admits, it is tried first."""
    op1 = _slot_op("f", 1)
    op2 = _slot_op("g", 1)
    formula = t.Or((t.Eq(t.Var("p01", Sort.INT), t.IntConst(7)),
                    t.Lt(t.Var("p02", Sort.INT), t.IntConst(0)),
                    t.Eq(t.Var("p01", Sort.INT),
                         t.Var("p02", Sort.INT))))
    check = lower_pair_condition(formula, op1, op2, EvalContext())
    adaptive = check.fn
    assert isinstance(adaptive, _AdaptiveOr)
    first = adaptive.parts[0]
    last = adaptive.parts[-1]
    # Only the equality disjunct (lowered last) ever hits.
    for _ in range(200):
        assert check.check(None, None, (3,), None, (3,)) is True
    assert adaptive.parts[0] is last
    assert first in adaptive.parts  # reordered, never dropped
    # Reordering is decision-neutral: misses still miss.
    assert check.check(None, None, (3,), None, (4,)) is False


def test_adaptive_or_never_wraps_partial_disjuncts():
    """Reordering is only sound when no disjunct can raise: a partial
    disjunct (map lookup on an absent key can yield null comparisons,
    sequence indexing can raise) pins the written order."""
    spec = DEFAULT_REGISTRY.spec("ArrayList")
    ctx = EvalContext(observe=spec.observe)
    for cond in _between_conditions("ArrayList"):
        op1 = spec.operations[cond.m1]
        op2 = spec.operations[cond.m2]
        check = lower_pair_condition(cond.dynamic_formula, op1, op2, ctx)
        if isinstance(check.fn, _AdaptiveOr):
            assert check.total, (
                f"{cond.m1};{cond.m2}: adaptive Or wrapping a partial "
                f"disjunction would reorder which EvalError surfaces")
