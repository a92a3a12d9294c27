"""The transition table against a plain loop, and its lifetime.

:func:`reference` is the bounded checker as it reads in the paper:
for every case run ``m1; m2``, run ``m2; m1``, compare, and evaluate
each condition through the interpreter.  Nothing is looked up or
shared, so every result of :func:`check_conditions` (case counts, and
counterexamples in order) must equal it.  The catalog checks run
inside one :func:`transition_run`, as the engine runs them: every pair
of a structure reads one table, each ordered pair's reverse steps
filled by the opposite pair.
"""

import gc
import weakref

import pytest

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.api import Session
from repro.commutativity import CommutativityCondition, Kind
from repro.commutativity.bounded import check_conditions, enumerate_cases
from repro.commutativity.transitions import (TransitionTable,
                                             transition_run, transitions)
from repro.eval import paper_scope
from repro.eval.interpreter import EvalContext, evaluate

SCOPE = paper_scope(max_seq_len=2)
REGISTRY = make_demo_registry()
STRUCTURES = ("Accumulator", "ListSet", "HashSet", "AssociationList",
              "HashTable", "ArrayList", DEMO_FAMILY)


def reference(spec, conditions, scope, max_counterexamples=3,
              use_dynamic=False):
    """``(cases, counterexamples)`` per condition, every step run."""
    op1, op2 = conditions[0].op1, conditions[0].op2
    ctx = EvalContext(observe=spec.observe)
    pre = spec.precondition_holds
    counts = [0] * len(conditions)
    found = [[] for _ in conditions]
    for state in spec.states(scope):
        for args1 in spec.arguments(op1, scope):
            if not pre(op1, state, args1):
                continue
            mid, r1 = op1.semantics(state, args1)
            for args2 in spec.arguments(op2, scope):
                if not pre(op2, mid, args2):
                    continue
                fin, r2 = op2.semantics(mid, args2)
                truth = False
                if pre(op2, state, args2):
                    mid_b, r2_b = op2.semantics(state, args2)
                    if pre(op1, mid_b, args1):
                        fin_b, r1_b = op1.semantics(mid_b, args1)
                        truth = ((op1.result_sort is None or r1 == r1_b)
                                 and (op2.result_sort is None
                                      or r2 == r2_b)
                                 and fin == fin_b)
                env = {"s1": state, "s2": mid, "s3": fin, "r1": r1,
                       "r2": r2}
                env.update((f"{p.name}1", a)
                           for p, a in zip(op1.params, args1))
                env.update((f"{p.name}2", a)
                           for p, a in zip(op2.params, args2))
                for i, cond in enumerate(conditions):
                    counts[i] += 1
                    formula = (cond.dynamic_formula if use_dynamic
                               else cond.formula)
                    phi = bool(evaluate(formula, env, ctx))
                    if phi != truth \
                            and len(found[i]) < max_counterexamples:
                        found[i].append((
                            "soundness" if phi else "completeness",
                            state, args1, args2, phi, truth))
    return list(zip(counts, found))


def observed(results):
    return [(r.cases, [(c.direction, c.state, c.args1, c.args2,
                        c.condition_value, c.commuted)
                       for c in r.counterexamples])
            for r in results]


def pairs_of(conditions):
    pairs: dict = {}
    for cond in conditions:
        pairs.setdefault((cond.m1, cond.m2), []).append(cond)
    return list(pairs.values())


def wrong(name, m1, m2, *texts):
    spec = REGISTRY.spec(name)
    return [CommutativityCondition(family=spec.name, m1=m1, m2=m2,
                                   kind=Kind.AFTER, text=text, spec=spec)
            for text in texts]


@pytest.mark.parametrize("use_dynamic", [False, True],
                         ids=["formula", "dynamic"])
@pytest.mark.parametrize("name", STRUCTURES)
def test_the_catalog_checks_like_the_reference_loop(name, use_dynamic):
    spec = REGISTRY.spec(name)
    with transition_run():
        for conditions in pairs_of(REGISTRY.conditions(name)):
            assert observed(check_conditions(
                spec, conditions, SCOPE, use_dynamic=use_dynamic)) \
                == reference(spec, conditions, SCOPE,
                             use_dynamic=use_dynamic), \
                f"{name} {conditions[0].pair_label}"


#: Wrong conditions, several per pair: ``true`` and ``false`` fail in
#: one direction each, and ``v1 = v2`` of ``add; remove`` in both,
#: interleaved in case order.
WRONG = [
    ("HashSet", "add", "remove", "true", "false", "v1 = v2"),
    ("HashSet", "contains", "contains", "false", "v1 = v2"),
    ("HashSet", "add", "add", "true", "r1 = r2"),
    ("HashTable", "put", "put", "true", "k1 = k2", "r1 = r2"),
    ("HashTable", "get", "put", "false", "k1 = k2"),
    ("ArrayList", "add_at", "remove_at", "true", "i1 = i2", "r2 = v1"),
    ("Accumulator", "increase", "read", "true", "v1 ~= 0", "false"),
    (DEMO_FAMILY, "write", "read", "true", "v1 = r2", "false"),
]


@pytest.mark.parametrize("cap", [1, 2, 1000])
@pytest.mark.parametrize("name,m1,m2,texts",
                         [(n, a, b, texts) for n, a, b, *texts in WRONG],
                         ids=[f"{n}-{a};{b}" for n, a, b, *_ in WRONG])
def test_wrong_conditions_fail_like_the_reference_loop(name, m1, m2,
                                                       texts, cap):
    spec = REGISTRY.spec(name)
    conditions = wrong(name, m1, m2, *texts)
    with transition_run():
        # The opposite pair first: its steps are the reverse order here.
        check_conditions(spec, wrong(name, m2, m1, "true"), SCOPE)
        got = observed(check_conditions(spec, conditions, SCOPE,
                                        max_counterexamples=cap))
    assert got == reference(spec, conditions, SCOPE,
                            max_counterexamples=cap)
    # Every condition is wrong; the cap truncates each list.
    assert all(0 < len(found) <= cap for _, found in got)


def test_one_condition_fails_both_ways_in_case_order():
    spec = REGISTRY.spec("HashSet")
    (result,) = check_conditions(
        spec, wrong("HashSet", "add", "remove", "v1 = v2"), SCOPE,
        max_counterexamples=1000)
    directions = [c.direction for c in result.counterexamples]
    assert set(directions) == {"soundness", "completeness"}
    assert sum(a != b for a, b in zip(directions, directions[1:])) >= 2


def test_dynamic_checks_read_the_dynamic_formulas():
    spec = REGISTRY.spec("HashSet")
    conditions = [CommutativityCondition(
        family=spec.name, m1="contains", m2="add", kind=Kind.BEFORE,
        text="true", dynamic_text=text, spec=spec)
        for text in ("v1 = v2", "false", "s1.contains(v1)")]
    got = observed(check_conditions(spec, conditions, SCOPE,
                                    use_dynamic=True))
    assert got == reference(spec, conditions, SCOPE, use_dynamic=True)
    assert got != observed(check_conditions(spec, conditions, SCOPE))


def test_mid_states_outside_the_enumeration_are_run():
    """``add_at; add_at`` from a list at the length bound passes
    through longer lists: those steps are filled on first use."""
    spec = REGISTRY.spec("ArrayList")
    add_at = spec.operations["add_at"]
    enumerated = set(spec.states(SCOPE))
    assert any(case.mid not in enumerated
               for case in enumerate_cases(spec, add_at, add_at, SCOPE))
    conditions = ([c for c in REGISTRY.conditions("ArrayList")
                   if (c.m1, c.m2) == ("add_at", "add_at")]
                  + wrong("ArrayList", "add_at", "add_at", "true",
                          "i1 = i2"))
    got = observed(check_conditions(spec, conditions, SCOPE,
                                    max_counterexamples=1000))
    assert got == reference(spec, conditions, SCOPE,
                            max_counterexamples=1000)


def test_a_run_shares_one_table_per_spec():
    spec = REGISTRY.spec("HashSet")
    with transition_run():
        assert transitions(spec) is transitions(spec)
        assert transitions(spec) is not transitions(
            REGISTRY.spec("HashTable"))
    assert transitions(spec) is not transitions(spec)


def test_a_run_drops_its_tables(monkeypatch):
    """The tables of ``verify_all`` and ``compile_stable`` die with
    their runs: nothing reachable afterwards (no spec, no report)
    holds one, and no table is in a reference cycle, so each is freed
    when its run returns, before any collection."""
    made = []
    init = TransitionTable.__init__

    def tracked(self, spec):
        init(self, spec)
        made.append(weakref.ref(self))

    monkeypatch.setattr(TransitionTable, "__init__", tracked)
    session = Session(registry=make_demo_registry(), jobs=1, cache=False)
    gc.collect()
    gc.disable()
    try:
        reports = session.verify_all(["HashSet"])
        # One table per spec per run.
        assert len(made) == 1 and made[0]() is None
        stable = session.compile_stable(["HashSet"])
        assert len(made) == 2 and made[1]() is None
    finally:
        gc.enable()
    assert reports["HashSet"].all_verified and stable["HashSet"].pairs
    gc.collect()
    assert [ref() for ref in made] == [None, None]
