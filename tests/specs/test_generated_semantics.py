"""Executable semantics generated from postconditions: every builtin
operation's, the refusals of postconditions outside guarded
explicit-update form, the shape of the generated functions, and their
fingerprints."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.engine.fingerprint import (_callable_source, spec_fingerprint,
                                      stable_hash)
from repro.eval import EvalContext, EvalError, FMap, Record, evaluate
from repro.logic.sorts import Sort
from repro.specs import all_specs, get_spec
from repro.specs.interface import (DataStructureSpec, Operation, Param,
                                   parse_post, parse_pre)

SRC = str(Path(__file__).resolve().parents[2] / "src")
FIELDS = {"elems": Sort.SEQ, "size": Sort.INT}
V = (Param("v", Sort.OBJ),)


def _spec(post_text=None, result=Sort.BOOL, params=V, semantics=None,
          fields=FIELDS, extra=None):
    """A one-operation spec over ``fields`` whose operation ``op`` has
    the postcondition ``post_text`` and/or ``semantics``."""
    post = None if post_text is None else parse_post(
        post_text, fields, params, result, {}, None)
    operations = {"op": Operation(
        name="op", params=params, result_sort=result,
        precondition=parse_pre("true", fields, params, {}, None),
        mutator=True, postcondition=post, semantics=semantics)}
    operations.update(extra or {})
    return DataStructureSpec(
        name="Custom", state_fields=dict(fields), principal_field=None,
        operations=operations,
        initial_state=Record(**{name: () if sort is Sort.SEQ else 0
                                for name, sort in fields.items()}),
        invariant=lambda state: True, states=lambda scope: iter(()),
        arguments=lambda op, scope: iter(()))


def test_every_builtin_operation_is_generated():
    for spec in [*all_specs().values(),
                 make_demo_registry().spec(DEMO_FAMILY)]:
        for op in spec.operations.values():
            assert op.semantics.generated_source().startswith(
                "def semantics(state, args):"), (spec.name, op.name)


@pytest.mark.parametrize("text,field", [
    ("elems = old_elems & result", "size"),
    ("elems = old_elems & size = old_size", "result"),
])
def test_an_undefined_name_is_refused_naming_it(text, field):
    with pytest.raises(ValueError,
                       match=f"Custom.op: .*does not define '{field}'"):
        _spec(text)


def test_an_equation_over_the_new_state_defines_nothing():
    with pytest.raises(ValueError,
                       match="Custom.op: .*does not define 'size'"):
        _spec("elems = old_elems & size = len(elems) & result")


def test_guards_must_be_complementary():
    for text in (
            # One guard without its negation.
            "elems = old_elems & (has(old_elems, v) --> size = old_size)"
            " & result",
            # Two guards that are not each other's negation.
            "elems = old_elems & (has(old_elems, v) --> size = old_size)"
            " & (old_size < 1 --> size = 0) & result",
            # The same guard twice.
            "elems = old_elems & (has(old_elems, v) --> size = old_size)"
            " & (has(old_elems, v) --> size = 0) & result"):
        with pytest.raises(ValueError, match="Custom.op: .*'size'.*"
                                             "not complementary"):
            _spec(text)


def test_a_name_defined_twice_is_refused():
    with pytest.raises(ValueError, match="Custom.op: .*'size' more than"):
        _spec("elems = old_elems & size = old_size & size = 0 & result")
    with pytest.raises(ValueError, match="Custom.op: .*'size' more than"):
        _spec("elems = old_elems & size = old_size & "
              "(has(old_elems, v) --> size = 0) & result")


def test_postcondition_and_semantics_are_exclusive():
    with pytest.raises(ValueError, match="Custom.op passes both"):
        _spec("elems = old_elems & size = old_size & result",
              semantics=lambda state, args: (state, True))
    with pytest.raises(ValueError, match="Custom.op has neither"):
        _spec(None)
    # Hand-written semantics alone are kept as given.
    semantics = lambda state, args: (state, True)  # noqa: E731
    assert _spec(None, semantics=semantics).operations["op"].semantics \
        is semantics


def test_a_built_operation_may_build_another_spec():
    """Rebuilding a spec from the operations of a built one regenerates
    their semantics rather than refusing them as given."""
    spec = get_spec("Set")
    again = DataStructureSpec(
        name="Set", state_fields=dict(spec.state_fields),
        principal_field=spec.principal_field,
        operations=dict(spec.operations),
        initial_state=spec.initial_state, invariant=spec.invariant,
        states=spec.states, arguments=spec.arguments)
    assert again.operations["add"].semantics(
        again.initial_state, ("a",)) == (
            Record(contents=frozenset({"a"}), size=1), True)


def test_unchanged_state_is_returned_itself():
    spec = get_spec("Set")
    state = Record(contents=frozenset({"a"}), size=1)
    for name, args in (("add", ("a",)), ("add_", ("a",)),
                       ("remove", ("b",)), ("contains", ("a",)),
                       ("size", ())):
        assert spec.operations[name].semantics(state, args)[0] is state
    assert spec.operations["add"].semantics(state, ("b",))[0] \
        == Record(contents=frozenset({"a", "b"}), size=2)


def test_discard_variants_follow_their_base(tiny_scope):
    for spec in all_specs().values():
        for op in spec.operations.values():
            if op.base_name is None:
                continue
            base = spec.operations[op.base_name]
            for state in spec.states(tiny_scope):
                for args in spec.arguments(op, tiny_scope):
                    if spec.precondition_holds(op, state, args):
                        assert op.semantics(state, args) == \
                            (base.semantics(state, args)[0], None)


def test_outside_the_precondition_arraylist_raises_eval_error():
    spec = get_spec("ArrayList")
    state = Record(elems=("a", "b", "c"), size=3)
    for name, args in (("get", (-1,)), ("get", (3,)),
                       ("remove_at", (-1,)), ("remove_at_", (3,)),
                       ("set", (-1, "z")), ("add_at", (4, "z"))):
        with pytest.raises(EvalError, match="out of range"):
            spec.operations[name].semantics(state, args)


def test_guards_quantifiers_and_deep_terms_generate():
    """Two guards, a quantified result and a term deeper than a
    generated function holds: the postcondition holds of the generated
    semantics on every state tried."""
    deep = " + 1" * 60
    fields = {"elems": Sort.SEQ, "size": Sort.INT, "count": Sort.INT}
    text = ("elems = old_elems & "
            "(has(old_elems, v) --> size = old_size) & "
            "(~has(old_elems, v) --> size = old_size + 1) & "
            f"(old_count < 2 --> count = old_count{deep}) & "
            "(~(old_count < 2) --> count = old_count) & "
            "result = (EX i. 0 <= i & i < len(old_elems) "
            "& at(old_elems, i) = v)")
    spec = _spec(text, fields=fields)
    op = spec.operations["op"]
    for elems in ((), ("a",), ("b", "a")):
        for count in (0, 1, 2, 3):
            state = Record(elems=elems, size=len(elems), count=count)
            new, result = op.semantics(state, ("a",))
            env = {"v": "a", "result": result}
            for name in fields:
                env[name], env[f"old_{name}"] = new[name], state[name]
            assert evaluate(op.postcondition, env, EvalContext())
            assert result is ("a" in elems)
            assert new["count"] == (count + 60 if count < 2 else count)


def test_a_field_named_like_a_python_keyword():
    spec = _spec("elems = old_elems & "
                 "(old_lambda < 1 --> lambda = old_lambda + 1) & "
                 "(~(old_lambda < 1) --> lambda = old_lambda) & result",
                 fields={"elems": Sort.SEQ, "lambda": Sort.INT})
    semantics = spec.operations["op"].semantics
    state = Record(elems=(), **{"lambda": 0})
    assert semantics(state, ("a",)) == \
        (Record(elems=(), **{"lambda": 1}), True)
    done = Record(elems=(), **{"lambda": 1})
    assert semantics(done, ("a",))[0] is done


def test_semantics_compile_on_first_call():
    """Building a spec compiles nothing; the first call compiles the
    function in place, which keeps its identity and fingerprint, and
    a caller holding the function runs the compiled body."""
    fresh = make_demo_registry().spec("Map")
    put = fresh.operations["put"]
    function = put.semantics
    stub = function.__code__
    before = stable_hash(spec_fingerprint(fresh))
    state = fresh.initial_state
    assert function(state, ("k", "x")) == \
        (Record(contents=FMap({"k": "x"}), size=1), None)
    assert put.semantics is function
    assert function.__code__ is not stub
    assert function.__code__.co_filename == "<semantics>"
    assert function(state, ("k", "x"))[1] is None
    assert stable_hash(spec_fingerprint(fresh)) == before


def test_generated_functions_fingerprint_by_their_source():
    spec = get_spec("Set")
    sources = {_callable_source(op.semantics)
               for op in spec.operations.values()}
    assert len(sources) == len(spec.operations)
    assert all(source.startswith("def semantics(") for source in sources)


_FINGERPRINTS = """
import json
from repro.abduction import make_demo_registry
from repro.engine.fingerprint import (_callable_source, spec_fingerprint,
                                      stable_hash)
registry = make_demo_registry()
specs = [registry.spec(family) for family in registry.families()]
print(json.dumps({spec.name: [
    stable_hash(spec_fingerprint(spec)),
    len({_callable_source(op.semantics)
         for op in spec.operations.values()}) == len(spec.operations)]
    for spec in specs}))
"""


def test_spec_fingerprints_do_not_depend_on_the_hash_seed():
    """Each spec fingerprints alike in two processes with different
    hash seeds, differently from the others, and every operation's
    semantics contributes its own source."""
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _FINGERPRINTS], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]
    fingerprints = json.loads(outputs[0])
    assert len({digest for digest, _ in fingerprints.values()}) == 5
    assert all(distinct for _, distinct in fingerprints.values())
