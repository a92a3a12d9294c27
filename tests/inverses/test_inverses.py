"""Inverse-operation tests (Sections 2.6, 4.2; Table 5.10)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import DEFAULT_REGISTRY, Registry
from repro.commutativity import CommutativityCondition, Kind
from repro.eval import Record, Scope
from repro.impls import new_instance
from repro.inverses import (INVERSES, Guard, InverseSpec,
                            InverseCall, Arg, InverseTestingMethod,
                            apply_inverse, check_all_inverses,
                            check_inverse, generate_inverse_methods,
                            inverse_for, inverses_for)
from repro.logic.sorts import Sort
from repro.runtime import SpeculativeExecutor, rollback
from repro.specs import get_spec
from repro.specs.interface import (DataStructureSpec, Operation, Param,
                                   parse_pre)


def test_eight_inverses_specified():
    """Table 5.10 has exactly eight rows."""
    assert len(INVERSES) == 8


def test_every_mutator_has_an_inverse():
    """Every abstract-state-changing operation is covered (via its
    return-value variant)."""
    for family in ("Accumulator", "Set", "Map", "ArrayList"):
        spec = get_spec(family)
        covered = {inv.op for inv in inverses_for(family)}
        for op in spec.operations.values():
            if op.mutator:
                base = op.base_name or op.name
                assert base in covered, (family, op.name)


def test_all_inverse_methods_verify(small_scope):
    """'All of the eight inverse testing methods verified as generated.'"""
    for result in check_all_inverses(small_scope):
        assert result.verified, result.summary()


def test_inverse_lookup_by_data_structure():
    inv = inverse_for("HashSet", "add")
    assert inv.render() == "if r = true then s2.remove(v)"
    with pytest.raises(KeyError):
        inverse_for("HashSet", "contains")


def test_table_5_10_renderings():
    rendered = {(inv.family, inv.op): inv.render() for inv in INVERSES}
    assert rendered[("Accumulator", "increase")] == "s2.increase(-v)"
    assert rendered[("Map", "put")] \
        == "if r ~= null then s2.put(k, r) else s2.remove(k)"
    assert rendered[("Map", "remove")] == "if r ~= null then s2.put(k, r)"
    assert rendered[("ArrayList", "remove_at")] == "s2.add_at(i, r)"


def test_wrong_inverse_is_caught():
    """An inverse that forgets the guard fails Property 3: removing an
    element that was already present must NOT be undone by remove."""
    wrong = InverseSpec(family="Set", op="add", guard=Guard.NONE,
                        then=(InverseCall("remove", (Arg.param("v"),)),))
    result = check_inverse("Set", wrong, Scope(objects=("a", "b")))
    assert not result.verified
    ce = result.counterexamples[0]
    assert ce.state != ce.restored


def test_wrong_map_inverse_is_caught():
    """put's inverse must restore the previous binding, not remove."""
    wrong = InverseSpec(family="Map", op="put", guard=Guard.NONE,
                        then=(InverseCall("remove", (Arg.param("k"),)),))
    result = check_inverse("Map", wrong,
                           Scope(objects=("a",), values=("x", "y")))
    assert not result.verified


def test_apply_inverse_restores_abstract_state():
    spec = get_spec("Map")
    put = spec.operations["put"]
    state = spec.initial_state
    state, _ = put.semantics(state, ("k", "x"))
    mid, r = put.semantics(state, ("k", "y"))
    restored = apply_inverse(spec, inverse_for("Map", "put"), mid,
                             {"k": "k", "v": "y"}, r)
    assert restored == state


def test_inverse_method_rendering_matches_figure_2_3():
    methods = {m.name: m for m in generate_inverse_methods()}
    java = methods["add0"].render_java()
    assert "boolean r = s.add(v);" in java
    assert "if (r) { s.remove(v); }" in java
    assert 's..contents = s..(old contents)' in java


def test_inverse_method_rendering_matches_figure_2_4():
    methods = {m.name: m for m in generate_inverse_methods()}
    java = methods["put0"].render_java()
    assert "Object r = s.put(k, v);" in java
    assert "if (r != null) { s.put(k, r); } else { s.remove(k); }" in java


# -- concrete rollback (undo logs on linked structures) -------------------------

def _undo(name, op, args, result):
    """The undo the executor logs for one execution of ``op``."""
    op = get_spec(name).operations[op]
    return DEFAULT_REGISTRY.resolve_undo(name, op, args, result)


@pytest.mark.parametrize("name", ["ListSet", "HashSet"])
def test_concrete_rollback_set(name):
    impl = new_instance(name)
    impl.add("x")
    before = impl.abstract_state()
    log = []
    r = impl.add("a")
    log.append(_undo(name, "add", ("a",), r))
    r = impl.remove("x")
    log.append(_undo(name, "remove", ("x",), r))
    r = impl.add("a")  # duplicate: returns False, inverse must skip
    log.append(_undo(name, "add", ("a",), r))
    rollback(impl, log)
    assert impl.abstract_state() == before
    assert log == []


@pytest.mark.parametrize("name", ["AssociationList", "HashTable"])
def test_concrete_rollback_map(name):
    impl = new_instance(name)
    impl.put("k", "x")
    before = impl.abstract_state()
    log = []
    log.append(_undo(name, "put", ("k", "y"), impl.put("k", "y")))
    log.append(_undo(name, "put", ("j", "x"), impl.put("j", "x")))
    log.append(_undo(name, "remove", ("k",), impl.remove("k")))
    rollback(impl, log)
    assert impl.abstract_state() == before


def test_concrete_rollback_arraylist():
    impl = new_instance("ArrayList")
    for i, v in enumerate(("a", "b", "c")):
        impl.add_at(i, v)
    before = impl.abstract_state()
    log = []
    impl.add_at(1, "z")
    log.append(_undo("ArrayList", "add_at", (1, "z"), None))
    log.append(_undo("ArrayList", "remove_at", (0,), impl.remove_at(0)))
    log.append(_undo("ArrayList", "set", (0, "q"), impl.set(0, "q")))
    rollback(impl, log)
    assert impl.abstract_state() == before


def test_rollback_restores_abstract_not_concrete():
    """Section 1.3: the reinserted element may appear at a different
    position in the list; only the abstract set is restored."""
    impl = new_instance("ListSet")
    for v in ("a", "b", "c"):
        impl.add(v)
    shape_before = impl.concrete_shape()
    abstract_before = impl.abstract_state()
    log = [_undo("ListSet", "remove", ("b",), impl.remove("b"))]
    rollback(impl, log)
    assert impl.abstract_state() == abstract_before
    assert impl.concrete_shape() != shape_before  # 'b' re-inserted at head


# -- property-based: arbitrary mutation sequences roll back exactly -----------------

_mutations = st.lists(
    st.tuples(st.sampled_from(("add", "remove")),
              st.sampled_from(("a", "b", "c"))),
    max_size=20)


@settings(max_examples=60, deadline=None)
@given(_mutations, st.sampled_from(("ListSet", "HashSet")))
def test_rollback_roundtrip_property_sets(ops, name):
    impl = new_instance(name)
    impl.add("seed")
    before = impl.abstract_state()
    log = [_undo(name, op, (v,), getattr(impl, op)(v)) for op, v in ops]
    rollback(impl, log)
    assert impl.abstract_state() == before


_map_mutations = st.lists(
    st.tuples(st.sampled_from(("put", "remove")),
              st.sampled_from(("k1", "k2")), st.sampled_from(("x", "y"))),
    max_size=20)


@settings(max_examples=60, deadline=None)
@given(_map_mutations, st.sampled_from(("AssociationList", "HashTable")))
def test_rollback_roundtrip_property_maps(ops, name):
    impl = new_instance(name)
    impl.put("seed", "x")
    before = impl.abstract_state()
    log = []
    for op, k, v in ops:
        if op == "put":
            log.append(_undo(name, "put", (k, v), impl.put(k, v)))
        else:
            log.append(_undo(name, "remove", (k,), impl.remove(k)))
    rollback(impl, log)
    assert impl.abstract_state() == before


# -- one interpreter: an else branch under RESULT_TRUE -----------------------------

_TOGGLE_FIELDS = {"contents": Sort.SET}
_TOGGLE_V = (Param("v", Sort.OBJ),)


def _toggle(state, args):
    (v,) = args
    inserted = v not in state["contents"]
    return Record(contents=state["contents"] ^ {v}), inserted


def _insert(state, args):
    (v,) = args
    return (Record(contents=state["contents"] | {v}),
            v not in state["contents"])


def _delete(state, args):
    (v,) = args
    return Record(contents=state["contents"] - {v}), v in state["contents"]


def _member(state, args):
    (v,) = args
    return state, v in state["contents"]


def _toggle_op(name, semantics, mutator):
    return Operation(name=name, params=_TOGGLE_V, result_sort=Sort.BOOL,
                     precondition=parse_pre("v ~= null", _TOGGLE_FIELDS,
                                            _TOGGLE_V, {}, None),
                     semantics=semantics, mutator=mutator)


def _toggle_states(scope):
    for n in range(len(scope.objects) + 1):
        for elems in itertools.combinations(scope.objects, n):
            yield Record(contents=frozenset(elems))


def make_toggle_spec():
    operations = {"toggle": _toggle_op("toggle", _toggle, True),
                  "add": _toggle_op("add", _insert, True),
                  "remove": _toggle_op("remove", _delete, True),
                  "contains": _toggle_op("contains", _member, False)}
    return DataStructureSpec(
        name="Toggle", state_fields=dict(_TOGGLE_FIELDS),
        principal_field="contents", operations=operations,
        initial_state=Record(contents=frozenset()),
        invariant=lambda state: True, states=_toggle_states,
        arguments=lambda op, scope: ((v,) for v in scope.objects))


class ToggleList:
    """A list-backed set whose ``toggle(v)`` inserts an absent ``v`` or
    removes a present one, returning whether it inserted."""

    def __init__(self):
        self._items = []

    def toggle(self, v):
        inserted = not self.remove(v)
        if inserted:
            self._items.append(v)
        return inserted

    def add(self, v):
        if v in self._items:
            return False
        self._items.insert(0, v)
        return True

    def remove(self, v):
        if v not in self._items:
            return False
        self._items.remove(v)
        return True

    def contains(self, v):
        return v in self._items

    def abstract_state(self):
        return Record(contents=frozenset(self._items))


#: ``if r then remove(v) else add(v)``: an else branch under a guard on
#: a boolean result.
TOGGLE_INVERSE = InverseSpec(
    family="Toggle", op="toggle", guard=Guard.RESULT_TRUE,
    then=(InverseCall("remove", (Arg.param("v"),)),),
    els=(InverseCall("add", (Arg.param("v"),)),))


def make_toggle_registry():
    registry = Registry()
    registry.register_spec("Toggle", make_toggle_spec,
                           implementation=ToggleList)
    registry.register_conditions("Toggle", lambda spec: [
        CommutativityCondition(family="Toggle", m1=m1, m2=m2,
                               kind=Kind.BETWEEN, text=text, spec=spec)
        for m1, m2, text in (("toggle", "toggle", "v1 ~= v2"),
                             ("toggle", "contains", "v1 ~= v2"),
                             ("contains", "toggle", "v1 ~= v2"),
                             ("contains", "contains", "true"))])
    registry.register_inverses("Toggle", [TOGGLE_INVERSE])
    return registry


def test_toggle_inverse_renders_and_verifies_its_else_branch():
    assert TOGGLE_INVERSE.render() \
        == "if r = true then s2.remove(v) else s2.add(v)"
    java = InverseTestingMethod("Toggle", TOGGLE_INVERSE,
                                make_toggle_spec()).render_java()
    assert "if (r) { s.remove(v); } else { s.add(v); }" in java
    registry = make_toggle_registry()
    result = check_inverse("Toggle", TOGGLE_INVERSE, Scope(),
                           registry=registry)
    assert result.verified and result.cases > 0


def test_rollback_applies_the_calls_apply_inverse_verifies():
    """For every in-scope case, the concrete rollback of ``toggle``
    applies exactly the calls Property 3 verified, through its else
    branch whenever the toggle removed."""
    registry = make_toggle_registry()
    spec = registry.spec("Toggle")
    toggle = spec.operations["toggle"]
    branches = set()
    for state in spec.states(Scope()):
        for args in spec.arguments(toggle, Scope()):
            mid, r = toggle.semantics(state, args)
            params = {"v": args[0]}
            verified = list(TOGGLE_INVERSE.calls(params, r))
            assert apply_inverse(spec, TOGGLE_INVERSE, mid, params,
                                 r) == state
            impl = ToggleList()
            for v in state["contents"]:
                impl.add(v)
            raw = impl.toggle(*args)
            log = [registry.resolve_undo("Toggle", toggle, args, raw)]
            assert rollback(impl, log) == verified
            assert impl.abstract_state() == state
            branches.add(verified[0][0])
    assert branches == {"add", "remove"}


def test_executor_rolls_back_a_removing_toggle():
    """A transaction aborted after its toggle removed an element must
    put the element back: every run stays serializable."""
    registry = make_toggle_registry()
    setup = [("toggle", (v,)) for v in ("a", "b")]
    programs = [[("toggle", ("a",)), ("toggle", ("c",))],
                [("toggle", ("b",)), ("toggle", ("a",))],
                [("contains", ("c",)), ("toggle", ("b",))]]
    aborts = 0
    for seed in range(6):
        report = SpeculativeExecutor(
            "Toggle", seed=seed, registry=registry).run(programs,
                                                        setup=setup)
        assert report.commits == len(programs)
        assert report.serializable, seed
        aborts += report.aborts
    assert aborts > 0
