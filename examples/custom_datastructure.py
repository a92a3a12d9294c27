"""Extending the system to a user-defined data structure.

A downstream user brings their own abstract specification — here a
single-cell ``Register`` with ``write(v)`` (returns the previous value)
and ``read()``, each specified by its postcondition, from which the
executable semantics is generated — registers it on a
:class:`repro.api.Registry` next to the paper's six built-ins, then
drives the whole pipeline through a :class:`repro.api.Session`:

1. *synthesize* sound-and-complete commutativity conditions directly
   from the executable semantics,
2. verify a hand-written condition with the bounded checker,
3. register the synthesized catalog and the inverse of ``write`` and
   verify them exactly like a built-in (``session.verify`` /
   ``session.check_inverses``), and
4. see the Register listed by the ``python -m repro list`` CLI.

No monkey-patching anywhere: the registry owns all name resolution.

Run:  python examples/custom_datastructure.py
"""

from typing import Any, Iterator

from repro.__main__ import main as repro_main
from repro.api import Registry, Session
from repro.commutativity import (CommutativityCondition, Kind,
                                 check_condition)
from repro.eval import Record, Scope
from repro.inverses import Arg, Guard, InverseCall, InverseSpec
from repro.logic.sorts import Sort
from repro.specs.interface import (DataStructureSpec, Operation, Param,
                                   parse_post, parse_pre)

STATE_FIELDS = {"value": Sort.OBJ}


def _states(scope: Scope) -> Iterator[Record]:
    for v in scope.objects:
        yield Record(value=v)


def _arguments(op: Operation, scope: Scope) -> Iterator[tuple[Any, ...]]:
    if op.params:
        for v in scope.objects:
            yield (v,)
    else:
        yield ()


def make_register_spec() -> DataStructureSpec:
    params = (Param("v", Sort.OBJ),)
    operations = {
        "write": Operation(
            name="write", params=params, result_sort=Sort.OBJ,
            precondition=parse_pre("v ~= null", STATE_FIELDS, params,
                                   {}, None),
            mutator=True,
            postcondition=parse_post("value = v & result = old_value",
                                     STATE_FIELDS, params, Sort.OBJ,
                                     {}, None)),
        "read": Operation(
            name="read", params=(), result_sort=Sort.OBJ,
            precondition=parse_pre("true", STATE_FIELDS, (), {}, None),
            mutator=False,
            postcondition=parse_post("value = old_value & result = "
                                     "old_value", STATE_FIELDS, (),
                                     Sort.OBJ, {}, None)),
    }
    return DataStructureSpec(
        name="Register", state_fields=dict(STATE_FIELDS),
        principal_field=None, operations=operations,
        initial_state=Record(value="init"),
        invariant=lambda state: True,
        states=_states, arguments=_arguments)


def main() -> None:
    # The Register joins the paper's six structures on a private
    # registry; DEFAULT_REGISTRY is untouched.
    registry = Registry.with_builtins()
    registry.register_spec("Register", make_register_spec)
    session = Session(registry=registry, scope=Scope(objects=("a", "b", "c")))

    # 1. Synthesize conditions from the semantics alone.
    print("synthesized sound-and-complete before conditions:")
    synthesized: dict[tuple[str, str], str] = {}
    for m1, m2, atom_texts in (
            ("write", "write", ["v1 = v2", "s1.value = v1",
                                "s1.value = v2"]),
            ("write", "read", ["s1.value = v1"]),
            ("read", "write", ["s1.value = v2"]),
            ("read", "read", [])):
        result = session.synthesize("Register", m1, m2, Kind.BEFORE,
                                    atom_texts)
        assert result.succeeded, (m1, m2)
        synthesized[(m1, m2)] = result.text
        print(f"  {m1}; {m2}: {result.text}")

    # 2. Verify hand-written conditions the classical way.  A natural
    # first guess — "writes of equal values commute" — is actually
    # UNSOUND because write returns the overwritten value, and the
    # checker produces the counterexample:
    spec = session.spec("Register")
    guess = CommutativityCondition(
        family="Register", m1="write", m2="write", kind=Kind.BEFORE,
        text="v1 = v2", spec=spec)
    outcome = check_condition(spec, guess, session.scope)
    print(f"\nnaive write;write condition: {outcome.summary()}")
    assert not outcome.verified
    print(f"  counterexample: {outcome.counterexamples[0]}")

    # The repaired condition also pins the overwritten value:
    cond = CommutativityCondition(
        family="Register", m1="write", m2="write", kind=Kind.BEFORE,
        text="v1 = v2 & s1.value = v1", spec=spec)
    outcome = check_condition(spec, cond, session.scope)
    print(f"repaired write;write condition: {outcome.summary()}")
    assert outcome.verified

    # 3. Register the synthesized catalog (a before-vocabulary formula
    # is evaluable at every kind) and the inverse of write, then verify
    # the Register exactly like a built-in.
    def build_register_conditions(spec: DataStructureSpec) \
            -> list[CommutativityCondition]:
        return [CommutativityCondition(family="Register", m1=m1, m2=m2,
                                       kind=kind, text=text, spec=spec)
                for (m1, m2), text in synthesized.items()
                for kind in Kind]

    registry.register_conditions("Register", build_register_conditions)
    registry.register_inverses("Register", [InverseSpec(
        family="Register", op="write", guard=Guard.NONE,
        then=(InverseCall("write", (Arg.result(),)),))])

    report = session.verify("Register")
    print(f"\n{report.summary()}")
    assert report.all_verified

    for result in session.check_inverses("Register"):
        print(result.summary())
        assert result.verified

    # 4. The CLI sees the Register like any built-in.
    print("\n$ python -m repro list")
    repro_main(["list"], registry=registry)


if __name__ == "__main__":
    main()
