"""The transition table and the generated pair loop against a plain
loop, and their lifetime.

:func:`pair_reference.reference` is the bounded checker as it reads in
the paper: for every case run ``m1; m2``, run ``m2; m1``, compare, and
evaluate each condition through the interpreter.  Every result of
:func:`check_conditions`, whose generated pair loop walks the run's
transition table, must equal it (case counts, and counterexamples in
order), and a formula that raises must raise the same error at the same
case.  The catalog checks run inside one :func:`transition_run`, as the
engine runs them: every pair of a structure reads one table, each
ordered pair's reverse steps filled by the opposite pair.
"""

import gc
import weakref
from collections import Counter

import pytest

from pair_reference import observed, outcome, reference
from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.api import Session
from repro.commutativity import CommutativityCondition, Kind, bounded
from repro.commutativity.bounded import check_conditions, enumerate_cases
from repro.commutativity.transitions import (TransitionTable,
                                             transition_run, transitions)
from repro.eval import paper_scope

SCOPE = paper_scope(max_seq_len=2)
REGISTRY = make_demo_registry()
STRUCTURES = ("Accumulator", "ListSet", "HashSet", "AssociationList",
              "HashTable", "ArrayList", DEMO_FAMILY)


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


def traced(spec, monkeypatch):
    """Record every observer call ``spec``'s formulas make."""
    calls = []
    observe = spec.observe

    def recording(state, method, args):
        calls.append((state, method, args))
        return observe(state, method, args)

    monkeypatch.setattr(spec, "observe", recording)
    return calls


def test_a_raising_formula_raises_at_the_reference_case(monkeypatch):
    """``at(s1, i2 + 1)`` is out of range once ``s1`` holds two
    elements and ``i2`` is its last index, which the enumeration meets
    only after many cases.  The generated loop raises the interpreter's
    ``EvalError``, message included, and the observer call ahead of it
    in the formula shows it evaluated the same cases in the same order
    up to that one."""
    spec = REGISTRY.spec("ArrayList")
    text = "s1.size() >= 0 & (len(s1) < 2 | at(s1, i2 + 1) = v1)"
    conditions = [CommutativityCondition(
        family=spec.name, m1="add_at", m2="get", kind=kind, text="true",
        dynamic_text=text, spec=spec) for kind in (Kind.BEFORE, Kind.AFTER)]
    calls = traced(spec, monkeypatch)
    got = outcome(lambda: check_conditions(spec, conditions, SCOPE,
                                           use_dynamic=True))
    loop_calls, calls[:] = calls[:], []
    expected = outcome(lambda: reference(spec, conditions, SCOPE,
                                         use_dynamic=True))
    assert got[:2] == ("raised", "EvalError")
    assert got == expected
    assert "out of range" in got[2]
    # One call per case for the one distinct formula; the reference
    # evaluates it once per condition.
    assert loop_calls == calls[::2] and len(loop_calls) > 10


def test_observer_conditions_check_like_the_reference(monkeypatch):
    spec = REGISTRY.spec("HashTable")
    texts = ["s1.get(k1) = v1", "s2.get(k2) = r1 | k1 ~= k2",
             "s3.containsKey(k1) <-> s1.containsKey(k2)", "true"]
    conditions = [CommutativityCondition(
        family=spec.name, m1="put", m2="get", kind=Kind.AFTER, text="true",
        dynamic_text=text, spec=spec) for text in texts]
    calls = traced(spec, monkeypatch)
    got = observed(check_conditions(spec, conditions, SCOPE,
                                    use_dynamic=True,
                                    max_counterexamples=1000))
    assert calls
    assert got == reference(spec, conditions, SCOPE, use_dynamic=True,
                            max_counterexamples=1000)


#: Quantified conditions, right and wrong: over every index of a
#: state, and over the objects the layout's bindings mention.
QUANTIFIED = [
    ("ArrayList", "add_at", "indexOf",
     "EX i. 0 <= i & i < len(s1) & at(s1, i) = v2",
     "ALL i. (0 <= i & i < len(s3)) --> at(s3, i) ~= v1",
     "ALL i. (0 <= i & i < len(s2)) --> (at(s2, i) = v1 --> i <= i1)"),
    ("HashSet", "add", "remove",
     "ALL o::obj. o : s1 --> o : s3", "EX o::obj. o ~= v1 & o : s2"),
    ("HashTable", "put", "remove",
     "EX o::obj. haskey(s3, o) & o ~= k1", "ALL o::obj. o = k1 | o = k2"),
]


@pytest.mark.parametrize("name,m1,m2,texts",
                         [(n, a, b, texts) for n, a, b, *texts in QUANTIFIED],
                         ids=[f"{n}-{a};{b}" for n, a, b, *_ in QUANTIFIED])
def test_quantified_conditions_check_like_the_reference(name, m1, m2,
                                                        texts):
    spec = REGISTRY.spec(name)
    conditions = wrong(name, m1, m2, *texts)
    assert observed(check_conditions(spec, conditions, SCOPE,
                                     max_counterexamples=1000)) \
        == reference(spec, conditions, SCOPE, max_counterexamples=1000)


def test_each_pair_compiles_once_per_run_and_dies_with_it(monkeypatch):
    """``verify_all`` writes one function per ordered pair of each
    structure, and every one is dead when the call returns, before any
    collection: only the run's tables hold them.  Within a run, checking
    a pair again reuses its function."""
    written = []
    write = bounded.write_pair_loop

    def counting(op1, op2, *args, **kwargs):
        written.append((op1.name, op2.name))
        return write(op1, op2, *args, **kwargs)

    loops = []
    find = bounded.pair_loop

    def tracked(*args, **kwargs):
        loop = find(*args, **kwargs)
        loops.append(weakref.ref(loop))
        return loop

    monkeypatch.setattr(bounded, "write_pair_loop", counting)
    monkeypatch.setattr(bounded, "pair_loop", tracked)
    names = ("HashSet", "ArrayList", DEMO_FAMILY)
    session = Session(registry=make_demo_registry(), jobs=1, cache=False)
    gc.collect()
    gc.disable()
    try:
        reports = session.verify_all(names)
        assert loops and [ref() for ref in loops] == [None] * len(loops)
    finally:
        gc.enable()
    assert all(report.all_verified for report in reports.values())
    assert Counter(written) == Counter(
        pair for name in names
        for pair in dict.fromkeys((c.m1, c.m2)
                                  for c in REGISTRY.conditions(name)))
    spec = REGISTRY.spec("HashSet")
    conditions = pairs_of(REGISTRY.conditions("HashSet"))[0]
    other = wrong("HashSet", conditions[0].m1, conditions[0].m2, "false")
    written.clear()
    with transition_run():
        first = check_conditions(spec, conditions, SCOPE)
        assert check_conditions(spec, conditions, SCOPE) == first
        assert len(written) == 1
        # Other formulas over the same pair are a function of their own.
        assert observed(check_conditions(spec, other, SCOPE)) \
            == reference(spec, other, SCOPE)
    assert len(written) == 2
