"""Content-address keys: stable across runs, sensitive to every
ingredient an obligation's outcome depends on."""

from repro.api import DEFAULT_REGISTRY
from repro.engine import TaskPlanner, task_key
from repro.engine.fingerprint import (condition_fingerprint,
                                      spec_fingerprint)
from repro.eval import Scope

SCOPE = Scope(objects=("a", "b"))


def _keys(names=("ListSet",), scope=SCOPE, backend="bounded",
          registry=None, **kwargs):
    plan = TaskPlanner(registry).plan_verification(names, scope, backend,
                                                   **kwargs)
    return [task.key for task in plan.tasks]


def test_keys_are_stable_across_planners():
    assert _keys() == _keys()


def test_keys_are_unique_per_pair():
    keys = _keys()
    assert len(keys) == len(set(keys)) == 36  # 108 conditions / 3 kinds


def test_scope_changes_key():
    assert _keys() != _keys(scope=Scope(objects=("a", "b", "c")))


def test_backend_changes_key():
    assert _keys() != _keys(backend="symbolic")


def test_use_dynamic_changes_key():
    assert _keys() != _keys(use_dynamic=True)


def test_structure_name_changes_key():
    # ListSet and HashSet share the Set family catalog, but their
    # reports carry per-structure timings, so keys stay distinct.
    assert _keys(("ListSet",)) != _keys(("HashSet",))


def test_engine_version_changes_key():
    spec_fp = spec_fingerprint(DEFAULT_REGISTRY.spec("ListSet"))
    obligations = [condition_fingerprint(c) for c in
                   DEFAULT_REGISTRY.conditions("ListSet")[:3]]
    common = dict(kind="commutativity", structure="ListSet",
                  backend="bounded", scope=SCOPE, spec_fp=spec_fp,
                  obligations=obligations)
    assert task_key(engine_version=1, **common) \
        != task_key(engine_version=2, **common)


def test_mutated_condition_invalidates_key(register_registry,
                                           register_scope):
    """Editing a registered condition's formula changes its task key."""
    before = TaskPlanner(register_registry).plan_verification(
        ("Register",), register_scope, "bounded")
    mutated = make_mutated_registry()
    after = TaskPlanner(mutated).plan_verification(
        ("Register",), register_scope, "bounded")
    before_by_pair = {t.pair: t.key for t in before.tasks}
    after_by_pair = {t.pair: t.key for t in after.tasks}
    assert set(before_by_pair) == set(after_by_pair)
    assert before_by_pair[("read", "read")] != after_by_pair[("read", "read")]
    # Untouched pairs keep their keys (only the edited obligation re-runs).
    assert before_by_pair[("write", "read")] == after_by_pair[("write", "read")]


def make_mutated_registry():
    """The Register registry with one condition formula edited."""
    import register_fixture
    from repro.api import Registry
    from repro.commutativity import CommutativityCondition, Kind

    registry = Registry.with_builtins()
    registry.register_spec("Register", register_fixture.make_register_spec)

    def build(spec):
        conditions = []
        for (m1, m2), text in register_fixture.REGISTER_CONDITIONS.items():
            if (m1, m2) == ("read", "read"):
                text = "s1.value = s1.value"  # edited formula
            for kind in Kind:
                conditions.append(CommutativityCondition(
                    family="Register", m1=m1, m2=m2, kind=kind,
                    text=text, spec=spec))
        return conditions

    registry.register_conditions("Register", build)
    registry.register_inverses("Register",
                               register_fixture.REGISTER_INVERSES)
    return registry


def test_mutated_spec_invalidates_every_key(register_registry,
                                            register_scope):
    """Editing the spec (an operation's semantics source) changes every
    one of the structure's task keys."""
    import register_fixture
    from repro.api import Registry

    def make_flaky_spec():
        spec = register_fixture.make_register_spec()

        def write_clamped(state, args):
            (v,) = args
            return type(state)(value=v), None  # drops the old value

        spec.operations["write"].semantics = write_clamped
        return spec

    mutated = Registry.with_builtins()
    mutated.register_spec("Register", make_flaky_spec)
    mutated.register_conditions("Register",
                                register_fixture.build_register_conditions)

    before = TaskPlanner(register_registry).plan_verification(
        ("Register",), register_scope, "bounded")
    after = TaskPlanner(mutated).plan_verification(
        ("Register",), register_scope, "bounded")
    assert {t.key for t in before.tasks}.isdisjoint(
        {t.key for t in after.tasks})


def test_inverse_plan_keys(register_registry, register_scope):
    plan = TaskPlanner(register_registry).plan_inverses(
        ("Register",), register_scope)
    assert len(plan.tasks) == 1
    task = plan.tasks[0]
    assert task.kind == "inverse" and task.inverse_op == "write"
    assert task.key


def _inverse_key(inverse):
    """The task key of ``inverse``, registered as HashSet's only one."""
    from repro.api import Registry
    from repro.specs import set_spec

    registry = Registry()
    registry.register_spec("Set", set_spec.make_spec, aliases=("HashSet",))
    registry.register_inverses("HashSet", [inverse])
    [task] = TaskPlanner(registry).plan_inverses(("HashSet",), SCOPE).tasks
    return task.key


def test_inverse_keys_cover_every_branch_and_argument_kind():
    """Two undo programs share a key only if they are the same program:
    a key sees the else branch under every guard, and each argument's
    kind, not just how the program prints."""
    from repro.inverses import Arg, Guard, InverseCall, InverseSpec

    def add_inverse(then, els=()):
        return InverseSpec(family="Set", op="add", guard=Guard.RESULT_TRUE,
                           then=then, els=els)

    remove_v = InverseCall("remove", (Arg.param("v"),))
    add_v = InverseCall("add", (Arg.param("v"),))
    assert _inverse_key(add_inverse((remove_v,))) \
        != _inverse_key(add_inverse((remove_v,), (add_v,)))
    by_result = add_inverse((InverseCall("remove", (Arg.result(),)),))
    by_param = add_inverse((InverseCall("remove", (Arg.param("r"),)),))
    assert by_result.render() == by_param.render()
    assert _inverse_key(by_result) != _inverse_key(by_param)


#: ``stable_hash(spec_fingerprint(spec))`` of each builtin and of
#: RegisterCell.  Every cached obligation is keyed on these, so a change
#: to the formula compiler that moved one would miss every entry.
SPEC_HASHES = {
    "Accumulator":
        "55bae0317427bff6d5b4d3d97eb806affd09275f8ed727cdf66e5d82da68179e",
    "ListSet":
        "3a9bf880e2874fefbcffbd9a86f313948a412d0d62b7cfc20b46b17960085eee",
    "HashSet":
        "3a9bf880e2874fefbcffbd9a86f313948a412d0d62b7cfc20b46b17960085eee",
    "AssociationList":
        "2dc2df498ce9871c652b3b27bbc000c90b7961e230e605d31d90a2c5410c31a0",
    "HashTable":
        "2dc2df498ce9871c652b3b27bbc000c90b7961e230e605d31d90a2c5410c31a0",
    "ArrayList":
        "d7e6e9324c2377d5280ffca558f6b60109a017ebeef149463fe782d0e5328afd",
    "RegisterCell":
        "40c5f70ab42370aef2976ab8077a30d441cf10c04fa7ca51ae8af08b0169e0a6",
}
#: SHA-256 over the generated source of every admission check (each
#: condition's formula and dynamic formula, lowered over the pair's
#: admission layout) and every precondition, structure by structure.
LOWERED_SOURCES = \
    "078830d1b433050e9ba4cd5fb881fa534ea8e6cd312ee5a140a3315b2f3c94c7"


def test_spec_fingerprints_and_lowered_sources_are_pinned():
    import hashlib

    from repro.abduction import make_demo_registry
    from repro.compiled import lower_pair_condition
    from repro.engine.fingerprint import stable_hash
    from repro.eval import EvalContext
    from repro.logic.compile import lower_term

    registry = make_demo_registry()
    digest = hashlib.sha256()
    for name, expected in SPEC_HASHES.items():
        spec = registry.spec(name)
        assert stable_hash(spec_fingerprint(spec)) == expected, name
        ctx = EvalContext(observe=spec.observe)
        for cond in registry.conditions(name):
            for term in (cond.formula, cond.dynamic_formula):
                lowered = lower_pair_condition(term, cond.op1, cond.op2,
                                               ctx).lowered
                digest.update((lowered.source if lowered is not None
                               else "").encode())
        for op in spec.operations.values():
            names = ("s", *(param.name for param in op.params))
            digest.update(
                lower_term(op.precondition, names, ctx).source.encode())
    assert digest.hexdigest() == LOWERED_SOURCES
