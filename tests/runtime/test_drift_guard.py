"""Drift-guard conservative paths (previously only the happy path was
property-tested): the EvalError fallback, custom structures without
routers, global-region operations — and the undo-commutation guard that
keeps inverse rollback from clobbering admitted writes."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "api"))

from register_fixture import make_register_registry  # noqa: E402

import pytest  # noqa: E402

from repro.api import Registry, Session, UnknownNameError  # noqa: E402
from repro.eval import Record  # noqa: E402
from repro.eval.values import FMap  # noqa: E402
from repro.inverses import InverseSpec  # noqa: E402
from repro.runtime import ConflictManager, LoggedOperation  # noqa: E402
from repro.runtime import SpeculativeExecutor, Transaction  # noqa: E402
from repro.runtime import executor  # noqa: E402
from repro.workloads import WorkloadSpec  # noqa: E402


def _set_state(*elems):
    return Record(contents=frozenset(elems), size=len(elems))


def _seq_state(*elems):
    return Record(elems=tuple(elems))


def _map_state(**kv):
    return Record(contents=FMap(kv), size=len(kv))


# -- EvalError fallback -------------------------------------------------------

def test_unevaluable_condition_falls_back_to_the_oracle():
    """A condition whose vocabulary indexes outside the logged snapshot
    cannot certify commutativity: the check lands on the router oracle
    (same band here, hence a conservative conflict), never on an
    unsound admission."""
    gk = ConflictManager("ArrayList")
    state = _seq_state("a")
    gk.record(LoggedOperation(txn_id=1, op_name="get", args=(0,),
                              result="a", before=state, after=state,
                              undo=()))
    # No drift (current == after), but ``at(upd(s1, 1, v), 0)`` indexes
    # a one-element snapshot at 1: EvalError inside the evaluation.
    assert not gk.admits(2, "set", (1, "x"), state)
    assert gk.counters()["drift_fallbacks"] == 1
    assert gk.counters()["fallback_admits"] == 0
    assert gk.counters()["drift_checks"] == 0  # the EvalError path


def test_unevaluable_condition_can_still_admit_disjoint_regions():
    gk = ConflictManager("ArrayList")
    state = _seq_state(*["a"] * 9)
    gk.record(LoggedOperation(txn_id=1, op_name="get", args=(0,),
                              result="a", before=_seq_state("a"),
                              after=_seq_state("a"), undo=()))
    # Drifted AND the incoming index lives in a higher band: the oracle
    # admits what the condition cannot evaluate.
    assert gk.admits(2, "set", (8, "x"), state)
    assert gk.counters()["drift_fallbacks"] == 1
    assert gk.counters()["fallback_admits"] == 1


# -- custom structures without routers ---------------------------------------

def test_custom_structure_without_router_conflicts_under_drift():
    """Register has state-referencing conditions and no router: once
    the verified environment is gone there is no oracle to consult, so
    every fragile pair is a conservative conflict."""
    registry = make_register_registry()
    gk = ConflictManager("Register", registry=registry)
    state = Record(value="a")
    # A no-op write: the write;read condition (s1.value = v1) holds.
    gk.record(LoggedOperation(txn_id=1, op_name="write", args=("a",),
                              result="a", before=state, after=state,
                              undo=(("write", ("a",)),)))
    # Same environment: the condition evaluates and admits.
    assert gk.admits(2, "read", (), state)
    # Drifted: refused outright, no router to fall back to.
    assert not gk.admits(2, "read", (), Record(value="z"))
    assert gk.counters()["drift_fallbacks"] == 1
    assert gk.counters()["fallback_admits"] == 0


# -- global-region operations -------------------------------------------------

def test_global_region_op_is_refused_under_drift():
    """``size`` interacts with every region, so the oracle can never
    declare it disjoint: a drifted size-pair is always a conflict."""
    gk = ConflictManager("HashSet")
    before = _set_state()
    after = _set_state("a")
    drifted = _set_state("a", "b")
    gk.record(LoggedOperation(txn_id=1, op_name="add_", args=("a",),
                              result=None, before=before, after=after,
                              undo=(("remove", ("a",)),)))
    # add_;size between condition is ``v1 : s1``: fragile.  Under drift
    # the oracle cannot help — size routes to every region.
    assert not gk.admits(2, "size", (), drifted)
    assert gk.counters()["drift_checks"] == 1
    assert gk.counters()["drift_fallbacks"] == 1
    assert gk.counters()["fallback_admits"] == 0


def test_global_region_logged_op_blocks_drifted_incomers():
    gk = ConflictManager("HashSet")
    state = _set_state("a")
    gk.record(LoggedOperation(txn_id=1, op_name="size", args=(),
                              result=1, before=state, after=state,
                              undo=()))
    # size;add_ between condition is ``v2 : s1``: fragile, and the
    # logged size interacts with everything.
    assert not gk.admits(2, "add_", ("b",), _set_state("a", "c"))
    assert gk.counters()["drift_fallbacks"] == 1
    assert gk.counters()["fallback_admits"] == 0


# -- the undo-commutation guard ----------------------------------------------

def test_undo_guard_refuses_clobberable_same_value_write():
    """The lost-update shape: ``T1: put_(k, x)`` over an older value,
    then ``T2: put_(k, x)`` — the pair commutes (same value), but if T1
    aborts its rollback rewrites ``k`` to the older value *under* T2's
    write.  The guard refuses the admission."""
    gk = ConflictManager("HashTable")
    before = _map_state(k="y")
    after = _map_state(k="x")
    gk.record(LoggedOperation(txn_id=1, op_name="put_", args=("k", "x"),
                              result=None, before=before, after=after,
                              undo=(("put", ("k", "y")),)))
    assert not gk.admits(2, "put_", ("k", "x"), after)
    assert gk.counters()["undo_refusals"] == 1


def test_undo_guard_skips_effect_free_executions():
    """A no-op write has a no-op undo (Property 3): nothing to guard."""
    gk = ConflictManager("HashTable")
    state = _map_state(k="x")
    gk.record(LoggedOperation(txn_id=1, op_name="put_", args=("k", "x"),
                              result=None, before=state, after=state,
                              undo=(("put", ("k", "x")),)))
    assert gk.admits(2, "put_", ("k", "x"), state)
    assert gk.counters()["undo_refusals"] == 0


def test_undo_guard_refuses_add_discard_shadowing():
    """``add_`` of a fresh element undoes with ``remove``; a concurrent
    ``add_`` of the same element would be silently deleted by that
    rollback."""
    gk = ConflictManager("HashSet")
    before = _set_state()
    after = _set_state("a")
    gk.record(LoggedOperation(txn_id=1, op_name="add_", args=("a",),
                              result=None, before=before, after=after,
                              undo=(("remove", ("a",)),)))
    assert not gk.admits(2, "add_", ("a",), after)
    assert gk.counters()["undo_refusals"] == 1
    # Disjoint elements never reach the guard (router short-circuit).
    assert gk.admits(2, "add_", ("b",), after)
    assert gk.counters()["undo_refusals"] == 1


def test_executor_survives_abort_under_admitted_same_value_write():
    """End-to-end: the abort-rollback interleavings stay identical to
    serial replay with the guard in place."""
    programs = [
        [("put_", ("k", "x"))],
        [("put_", ("k", "x")), ("size", ()), ("remove", ("j",))],
        [("put", ("k", "y")), ("put", ("k", "y"))],
    ]
    for seed in range(25):
        report = SpeculativeExecutor("HashTable", "commutativity",
                                     seed=seed).run(programs)
        assert report.serializable, (seed, report.summary())


# -- the undo is resolved once, where the operation ran -----------------------

def test_each_recorded_mutator_resolves_its_undo_once(monkeypatch):
    """Over a run with aborts and undo refusals, the inverse interpreter
    runs once per recorded mutator, and never while rolling back or
    deciding an admission: both read the logged undo."""
    inside: list[str] = []
    resolved: list[tuple[str, ...]] = []
    recorded: list[str] = []

    def during(phase, fn):
        def wrapped(*args, **kwargs):
            inside.append(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    calls, record = InverseSpec.calls, Transaction.record

    def counted_calls(self, params, result):
        resolved.append(tuple(inside))
        return calls(self, params, result)

    def counted_record(self, op, undo, visible):
        if op.mutator:
            recorded.append(op.name)
        return record(self, op, undo, visible)

    monkeypatch.setattr(InverseSpec, "calls", counted_calls)
    monkeypatch.setattr(Transaction, "record", counted_record)
    monkeypatch.setattr(executor, "rollback",
                        during("rollback", executor.rollback))
    monkeypatch.setattr(ConflictManager, "check_many",
                        during("admission", ConflictManager.check_many))
    report = Session().run_workload(
        "HashTable", WorkloadSpec(
            profile="write-heavy", distribution="hot-key", transactions=12,
            ops_per_transaction=4, key_space=24, value_space=3, preload=20,
            seed=1), conflict_mode="abort")
    assert report.serializable
    assert report.aborts > 0 and report.undo_refusals > 0
    assert len(resolved) == len(recorded) > 0
    assert set(resolved) == {()}


# -- a mutator without a registered inverse -----------------------------------

def _set_registry_without_inverses():
    from repro.commutativity.catalog import set_conditions
    from repro.impls import HashSet
    from repro.specs import set_spec
    registry = Registry()
    registry.register_spec("Set", set_spec.make_spec, aliases=("HashSet",),
                           implementation=HashSet)
    registry.register_conditions("Set", set_conditions.build)
    return registry


def test_a_mutator_without_an_inverse_runs_but_cannot_be_undone():
    """It runs; the guard refuses every admission against an effective
    execution of it; an abort that reaches it raises, naming the family
    and the operation."""
    registry = _set_registry_without_inverses()
    report = SpeculativeExecutor("HashSet", registry=registry).run(
        [[("add", ("x",)), ("contains", ("x",))]])
    assert report.commits == 1 and report.serializable

    add = registry.spec("HashSet").operations["add"]
    gk = ConflictManager("HashSet", registry=registry)
    before, after = _set_state(), _set_state("a")
    gk.record(LoggedOperation(
        txn_id=1, op_name="add", args=("a",), result=True, before=before,
        after=after, undo=registry.resolve_undo("HashSet", add, ("a",),
                                                True)))
    # The between condition admits a different element; its undo does not.
    assert not gk.admits(2, "contains", ("b",), after)
    assert gk.counters()["undo_refusals"] == 1

    # Seed 4 aborts a transaction whose log holds an add.
    programs = [[("add", ("a",)), ("add", ("x",))],
                [("add", ("a",)), ("add", ("y",))]]
    with pytest.raises(UnknownNameError,
                       match="inverse for Set operation") as raised:
        SpeculativeExecutor("HashSet", registry=registry, seed=4).run(
            programs, setup=[("add", ("a",))])
    assert raised.value.name == "add"
