"""Admission pair plans (:mod:`repro.compiled.admission`): one plan per
ordered operation pair, armed once per registry and shared by its
managers.  A constant-true pair after a read admits straight from its
plan and counts exactly what the closure path counts; every other pair
keeps the closure, the interpreter fallback and the undo guard."""

import dataclasses
import gc
import weakref

import pytest

from repro.api import DEFAULT_REGISTRY, Registry
from repro.commutativity.catalog import set_conditions
from repro.commutativity.conditions import Kind
from repro.compiled import LoweredCheck, armed, clear_cache
from repro.eval import Record
from repro.impls import HashSet
from repro.inverses.catalog import INVERSES
from repro.runtime import ConflictManager, LoggedOperation
from repro.runtime import gatekeeper
from repro.specs import set_spec
from repro.stability.compiler import StableCondition

EMPTY = Record(contents=frozenset(), size=0)
HOLDS_A = Record(contents=frozenset({"a"}), size=1)


def _logged(op_name, args, result, before=HOLDS_A, after=HOLDS_A,
            undo=()):
    return LoggedOperation(txn_id=1, op_name=op_name, args=args,
                           result=result, before=before, after=after,
                           undo=undo)


def _only(**counts):
    """A full counter dict: the given counts, every other counter 0."""
    return {name: counts.get(name, 0) for name in gatekeeper.COUNTERS}


@pytest.fixture
def closure_calls(monkeypatch):
    """The compiled checks the managers run, in order."""
    calls = []
    check = LoweredCheck.check

    def counting(self, *args):
        calls.append(self)
        return check(self, *args)
    monkeypatch.setattr(LoweredCheck, "check", counting)
    return calls


@pytest.fixture
def interpreter_calls(monkeypatch):
    """The formulas the managers hand to the interpreter, in order."""
    calls = []
    evaluate = gatekeeper.evaluate

    def counting(formula, env, ctx):
        calls.append(formula)
        return evaluate(formula, env, ctx)
    monkeypatch.setattr(gatekeeper, "evaluate", counting)
    return calls


def test_constant_read_pair_admits_without_its_closure(closure_calls,
                                                       interpreter_calls):
    """HashSet ``contains;size`` is the constant ``true`` after a read:
    admitted from the plan, counted as the one compiled pair check the
    closure path counts."""
    plan = armed(DEFAULT_REGISTRY, "HashSet", False)["size"]["contains"]
    assert plan.reads_true
    gk = ConflictManager("HashSet")
    gk.record(_logged("contains", ("a",), True))
    assert gk.admits(2, "size", (), HOLDS_A)
    assert closure_calls == [] and interpreter_calls == []
    assert gk.counters() == _only(conflict_checks=1, compiled_hits=1)


@pytest.mark.parametrize("logged_args, incoming_args",
                         [(("a", "extra"), ()), (("a",), ("extra",))],
                         ids=("logged", "incoming"))
def test_arity_drift_goes_to_the_interpreter(closure_calls,
                                             interpreter_calls,
                                             logged_args, incoming_args):
    """The same pair with a call whose arity does not fit the plan:
    the closure refuses it (SlotMismatch) and the interpreter
    decides, so no compiled hit is counted."""
    gk = ConflictManager("HashSet")
    gk.record(_logged("contains", logged_args, True))
    assert gk.admits(2, "size", incoming_args, HOLDS_A)
    assert len(closure_calls) == 1 and len(interpreter_calls) == 1
    assert gk.counters() == _only(conflict_checks=1)


def _doctored_set_registry(m1, m2):
    """The Set family with the ``m1;m2`` between condition replaced by
    the constant ``true``: unsound on its own, on purpose."""
    def doctored(spec):
        return [dataclasses.replace(c, text="true", dynamic_text=None)
                if (c.m1, c.m2, c.kind) == (m1, m2, Kind.BETWEEN) else c
                for c in set_conditions.build(spec)]
    registry = Registry()
    registry.register_spec("Set", set_spec.make_spec,
                           aliases=("HashSet",), implementation=HashSet)
    registry.register_conditions("Set", doctored)
    registry.register_inverses(
        "Set", [inv for inv in INVERSES if inv.family == "Set"])
    return registry


def test_constant_pair_after_a_mutator_keeps_the_undo_guard(closure_calls):
    """``add;contains`` doctored to ``true``: the closure is constant,
    but T1's ``add(a)`` may still be rolled back, and ``contains(a)``
    observes True before the undo and False after it, so the undo
    guard refuses the admission."""
    registry = _doctored_set_registry("add", "contains")
    plan = armed(registry, "HashSet", False)["contains"]["add"]
    assert plan.between.is_const and not plan.reads_true
    gk = ConflictManager("HashSet", registry=registry)
    gk.record(_logged("add", ("a",), True, before=EMPTY, after=HOLDS_A,
                      undo=(("remove", ("a",)),)))
    assert not gk.admits(2, "contains", ("a",), HOLDS_A)
    assert closure_calls == [plan.between]
    assert gk.counters() == _only(conflict_checks=1, conflicts=1,
                                  compiled_hits=1, undo_refusals=1)


def test_managers_share_one_arming_until_clear_cache():
    """Every manager of a family on one registry arms from the same
    plans (Set: ListSet and HashSet, flat and sharded);
    ``clear_cache()`` drops them, so the next manager arms afresh."""
    registry = Registry.with_builtins()
    plans = armed(registry, "HashSet", False)
    assert armed(registry, "ListSet", False) is plans
    assert ConflictManager("ListSet", registry=registry,
                           shards=4)._pair_plans is plans
    assert armed(Registry.with_builtins(), "HashSet", False) is not plans
    clear_cache()
    rearmed = armed(registry, "HashSet", False)
    assert rearmed is not plans
    assert ConflictManager("HashSet", registry=registry)._pair_plans \
        is rearmed


def test_registering_stable_conditions_rearms_the_family():
    """A replaced stable catalog is what the next manager arms from:
    the plan carries the new condition and tier, never the old."""
    registry = Registry.with_builtins()
    spec = registry.spec("Set")

    def stable(tier):
        return [StableCondition(family="Set", m1="add", m2="contains",
                                text="v1 ~= v2", spec=spec, tier=tier)]
    registry.register_stable_conditions("HashSet", stable("weakened"))
    weakened = armed(registry, "HashSet", True)["contains"]["add"]
    assert weakened.tier == "weakened"
    assert armed(registry, "HashSet", False)["contains"]["add"].stable \
        is None
    registry.register_stable_conditions("HashSet", stable("proved"),
                                        replace=True)
    proved = armed(registry, "HashSet", True)["contains"]["add"]
    assert proved.tier == "proved" and proved.stable is not weakened.stable


def test_an_arming_does_not_keep_its_registry_alive():
    registry = Registry.with_builtins()
    ConflictManager("HashSet", registry=registry, stable=False)
    collected = weakref.ref(registry)
    del registry
    gc.collect()
    assert collected() is None


def test_interpreted_fixture_hides_constant_plans(interpreted,
                                                 interpreter_calls):
    """Under the ``interpreted`` fixture even a constant read pair is
    decided by the interpreter, although the registry already holds a
    compiled arming; after the block, managers use it again."""
    def check():
        gk = ConflictManager("HashSet")
        gk.record(_logged("contains", ("a",), True))
        assert gk.admits(2, "size", (), HOLDS_A)
        return gk.counters()["compiled_hits"]

    assert check() == 1
    with interpreted():
        assert check() == 0
    assert len(interpreter_calls) == 1
    assert check() == 1
