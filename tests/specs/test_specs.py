"""Specification-layer tests: operation inventories, preconditions,
postcondition/semantics agreement."""

import pytest

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.eval import EvalContext, EvalError, Record, Scope, evaluate
from repro.logic.sorts import Sort
from repro.specs import PreconditionError, all_specs, get_spec
from repro.specs.registry import SPEC_FAMILIES


def test_operation_counts_match_paper():
    """2 + 6 + 7 + 9 operations => 765 conditions (Section 5.1)."""
    counts = {name: len(spec.operations)
              for name, spec in all_specs().items()}
    assert counts == {"Accumulator": 2, "Set": 6, "Map": 7, "ArrayList": 9}


def test_condition_arithmetic():
    counts = {"Accumulator": 2, "Set": 6, "Map": 7, "ArrayList": 9}
    total = (3 * counts["Accumulator"] ** 2
             + 2 * 3 * counts["Set"] ** 2
             + 2 * 3 * counts["Map"] ** 2
             + 3 * counts["ArrayList"] ** 2)
    assert total == 765


def test_family_aliases():
    assert get_spec("ListSet") is get_spec("HashSet")
    assert get_spec("AssociationList") is get_spec("HashTable")
    assert set(SPEC_FAMILIES) == {"Accumulator", "ListSet", "HashSet",
                                  "AssociationList", "HashTable",
                                  "ArrayList"}


def test_unknown_spec_rejected():
    with pytest.raises(KeyError):
        get_spec("BTree")


def test_discard_variants_marked():
    spec = get_spec("Set")
    assert spec.operations["add_"].base_name == "add"
    assert spec.operations["add_"].discards_result
    assert not spec.operations["add"].discards_result
    assert spec.operations["add_"].result_sort is None


def test_set_add_semantics():
    spec = get_spec("Set")
    state = spec.initial_state
    state, r = spec.execute(spec.operations["add"], state, ("a",))
    assert r is True and state["size"] == 1
    state, r = spec.execute(spec.operations["add"], state, ("a",))
    assert r is False and state["size"] == 1


def test_precondition_enforced():
    spec = get_spec("Set")
    with pytest.raises(PreconditionError):
        spec.execute(spec.operations["add"], spec.initial_state, (None,))


def test_arraylist_preconditions():
    spec = get_spec("ArrayList")
    empty = spec.initial_state
    assert spec.precondition_holds(spec.operations["add_at"], empty,
                                   (0, "a"))
    assert not spec.precondition_holds(spec.operations["add_at"], empty,
                                       (1, "a"))
    assert not spec.precondition_holds(spec.operations["get"], empty, (0,))


def test_map_put_returns_previous():
    spec = get_spec("Map")
    state = spec.initial_state
    state, r = spec.execute(spec.operations["put"], state, ("k", "x"))
    assert r is None
    state, r = spec.execute(spec.operations["put"], state, ("k", "y"))
    assert r == "x"
    state, r = spec.execute(spec.operations["remove"], state, ("k",))
    assert r == "y" and state["size"] == 0


def test_observe_rejects_mutators():
    spec = get_spec("Set")
    with pytest.raises(ValueError):
        spec.observe(spec.initial_state, "add", ("a",))


def test_invariants_hold_on_enumerated_states():
    scope = Scope(objects=("a", "b"), max_seq_len=2)
    for spec in all_specs().values():
        for state in spec.states(scope):
            assert spec.invariant(state)


@pytest.mark.parametrize("family", ["Accumulator", "Set", "Map",
                                    "ArrayList"])
def test_postconditions_hold_of_semantics(family, tiny_scope):
    """Every operation's postcondition formula is true of the transition
    its executable semantics produces (spec self-consistency)."""
    spec = get_spec(family)
    ctx = EvalContext(observe=spec.observe)
    for state in spec.states(tiny_scope):
        for op in spec.operations.values():
            if op.postcondition is None:
                continue
            for args in spec.arguments(op, tiny_scope):
                if not spec.precondition_holds(op, state, args):
                    continue
                new_state, result = op.semantics(state, args)
                env = {}
                for fname in spec.state_fields:
                    env[f"old_{fname}"] = state[fname]
                    env[fname] = new_state[fname]
                for param, value in zip(op.params, args):
                    env[param.name] = value
                if op.result_sort is not None:
                    env["result"] = result
                assert evaluate(op.postcondition, env, ctx), \
                    (family, op.name, state, args)


def test_semantics_preserve_invariant(tiny_scope):
    for spec in all_specs().values():
        for state in spec.states(tiny_scope):
            for op in spec.operations.values():
                for args in spec.arguments(op, tiny_scope):
                    if not spec.precondition_holds(op, state, args):
                        continue
                    new_state, _ = op.semantics(state, args)
                    assert spec.invariant(new_state)


def test_initial_states():
    assert get_spec("Set").initial_state["contents"] == frozenset()
    assert get_spec("Map").initial_state["size"] == 0
    assert get_spec("ArrayList").initial_state["elems"] == ()
    assert get_spec("Accumulator").initial_state == Record(value=0)


# -- compiled preconditions --------------------------------------------------


@pytest.mark.parametrize("name", ("Accumulator", "ListSet", "HashSet",
                                  "AssociationList", "HashTable",
                                  "ArrayList", DEMO_FAMILY))
def test_compiled_preconditions_decide_as_the_interpreter(name):
    """Over every in-scope state, operation and argument tuple (and the
    tuple with its objects nulled), the compiled precondition returns
    the interpreter's verdict; a call missing an argument raises
    EvalError in both."""
    spec = make_demo_registry().spec(name)
    ctx = EvalContext(observe=spec.observe)
    scope = Scope()
    verdicts = set()
    errors = 0
    for state in spec.states(scope):
        for op in spec.operations.values():
            for args in spec.arguments(op, scope):
                nulled = tuple(None if p.sort is Sort.OBJ else v
                               for p, v in zip(op.params, args))
                calls = [args, nulled, args[:-1]] if args else [args]
                for call in calls:
                    env = {"s": state}
                    env.update((p.name, v) for p, v in zip(op.params, call))
                    try:
                        expected = bool(evaluate(op.precondition, env, ctx))
                    except EvalError:
                        with pytest.raises(EvalError):
                            spec.precondition_holds(op, state, call)
                        errors += 1
                        continue
                    verdict = spec.precondition_holds(op, state, call)
                    assert verdict is expected, (op.name, state, call)
                    verdicts.add(verdict)
    # Accumulator's preconditions are all ``true``.
    assert verdicts == {True, False} or name == "Accumulator"
    assert errors or name == "Accumulator"


def test_compiled_preconditions_stay_out_of_the_fingerprint():
    """Engine cache keys hash the spec fingerprint; compiling a
    precondition must not move them."""
    from repro.engine.fingerprint import spec_fingerprint, stable_hash
    spec = make_demo_registry().spec("ArrayList")
    before = stable_hash(spec_fingerprint(spec))
    text = repr(spec)
    for op in spec.operations.values():
        spec.precondition_holds(op, spec.initial_state,
                                (0, "a")[:len(op.params)])
    assert stable_hash(spec_fingerprint(spec)) == before
    assert repr(spec) == text
