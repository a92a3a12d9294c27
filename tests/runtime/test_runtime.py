"""Runtime tests: gatekeeper admission, rollback correctness, and the
serializability property of speculative execution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import Record
from repro.runtime import (ConflictManager, LoggedOperation,
                           SpeculativeExecutor)


def _logged(txn_id, op, args, result, before, undo=()):
    return LoggedOperation(txn_id=txn_id, op_name=op, args=args,
                           result=result, before=before,
                           after=before, undo=undo)


def test_gatekeeper_admits_commuting_ops():
    gk = ConflictManager("HashSet")
    s0 = Record(contents=frozenset(), size=0)
    gk.record(_logged(1, "contains", ("a",), False, s0))
    # Different element: commutes.
    assert gk.admits(2, "add", ("b",), s0)
    # Same element, contains returned False: does not commute (Fig 2-2).
    assert not gk.admits(2, "add", ("a",), s0)


def test_gatekeeper_same_transaction_never_conflicts():
    gk = ConflictManager("HashSet")
    s0 = Record(contents=frozenset(), size=0)
    gk.record(_logged(1, "contains", ("a",), False, s0))
    assert gk.admits(1, "add", ("a",), s0)


def test_gatekeeper_uses_return_values():
    gk = ConflictManager("HashSet")
    s1 = Record(contents=frozenset({"a"}), size=1)
    # contains(a) returned True: add(a) commutes even for equal elements.
    gk.record(_logged(1, "contains", ("a",), True, s1))
    assert gk.admits(2, "add", ("a",), s1)


def test_gatekeeper_policies_ordering():
    """mutex <= read-write <= commutativity in permissiveness."""
    s0 = Record(contents=frozenset({"a"}), size=1)
    for op2, args2, expect in ((("contains"), ("b",), True),
                               (("add"), ("b",), True)):
        commutative = ConflictManager("HashSet", "commutativity")
        rw = ConflictManager("HashSet", "read-write")
        mutex = ConflictManager("HashSet", "mutex")
        for gk in (commutative, rw, mutex):
            gk.record(_logged(1, "contains", ("a",), True, s0))
        assert commutative.admits(2, op2, args2, s0) is expect
        assert mutex.admits(2, op2, args2, s0) is False
        if rw.admits(2, op2, args2, s0):
            assert commutative.admits(2, op2, args2, s0)


def test_gatekeeper_release():
    gk = ConflictManager("HashSet")
    s0 = Record(contents=frozenset(), size=0)
    gk.record(_logged(1, "add", ("a",), True, s0,
                      undo=(("remove", ("a",)),)))
    assert len(gk.outstanding()) == 1
    gk.release(1)
    assert gk.outstanding() == []


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        ConflictManager("HashSet", "optimistic-unicorn")


# -- end-to-end speculative execution ----------------------------------------------

DISJOINT_SET_PROGRAMS = [
    [("add", ("a1",)), ("add", ("a2",)), ("contains", ("a1",))],
    [("add", ("b1",)), ("remove", ("b2",))],
    [("add", ("c1",)), ("contains", ("c2",))],
]


def test_disjoint_workload_runs_without_aborts():
    report = SpeculativeExecutor("HashSet", "commutativity",
                                 seed=7).run(DISJOINT_SET_PROGRAMS)
    assert report.commits == 3
    assert report.aborts == 0
    assert report.serializable


def test_read_write_policy_aborts_disjoint_workload():
    """The motivation for semantic commutativity: RW conflict detection
    serializes workloads that actually commute."""
    report = SpeculativeExecutor("HashSet", "read-write",
                                 seed=7).run(DISJOINT_SET_PROGRAMS)
    assert report.aborts > 0
    assert report.serializable


def test_conflicting_workload_still_serializable():
    programs = [
        [("add", ("x",)), ("remove", ("y",))],
        [("contains", ("x",)), ("add", ("y",))],
        [("size", ()), ("add", ("x",))],
    ]
    for seed in range(5):
        report = SpeculativeExecutor("HashSet", "commutativity",
                                     seed=seed).run(programs)
        assert report.commits == 3
        assert report.serializable, report.summary()


def test_map_workload():
    programs = [
        [("put", ("k1", "x")), ("get", ("k1",))],
        [("put", ("k2", "y")), ("containsKey", ("k3",))],
        [("remove", ("k3",)), ("size", ())],
    ]
    report = SpeculativeExecutor("HashTable", "commutativity",
                                 seed=3).run(programs)
    assert report.commits == 3
    assert report.serializable


def test_arraylist_workload_with_rollback():
    programs = [
        [("add_at", (0, "a")), ("add_at", (0, "b"))],
        [("add_at", (0, "c")), ("set", (0, "d"))],
    ]
    for seed in range(4):
        report = SpeculativeExecutor("ArrayList", "commutativity",
                                     seed=seed).run(programs)
        assert report.commits == 2
        assert report.serializable


def test_accumulator_workload_all_commute():
    programs = [[("increase", (i,))] * 3 for i in (1, 2, 5)]
    report = SpeculativeExecutor("Accumulator", "commutativity",
                                 seed=0).run(programs)
    assert report.aborts == 0
    assert report.final_state["value"] == 3 * (1 + 2 + 5)


# -- property-based serializability --------------------------------------------------

_ops = st.sampled_from([
    ("add", ("a",)), ("add", ("b",)), ("remove", ("a",)),
    ("remove", ("c",)), ("contains", ("b",)), ("size", ()),
    ("add_", ("c",)), ("remove_", ("b",)),
])
_programs = st.lists(st.lists(_ops, min_size=1, max_size=4),
                     min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(_programs, st.integers(0, 1000), st.sampled_from(("ListSet",
                                                         "HashSet")))
def test_serializability_property(programs, seed, name):
    """Whatever the interleaving, the committed execution equals its
    serial replay in commit order — the guarantee the verified
    commutativity conditions + inverses provide."""
    report = SpeculativeExecutor(name, "commutativity",
                                 seed=seed).run(programs)
    assert report.commits == len(programs)
    assert report.serializable


# -- blocking conflict mode -------------------------------------------------------

def test_block_mode_disjoint_workload():
    report = SpeculativeExecutor("HashSet", "commutativity", seed=7,
                                 conflict_mode="block") \
        .run(DISJOINT_SET_PROGRAMS)
    assert report.commits == 3
    assert report.aborts == 0
    assert report.serializable


def test_block_mode_waits_instead_of_aborting():
    """Under read-write detection the disjoint workload conflicts
    constantly; blocking resolves almost all of it without rollbacks."""
    abort_mode = SpeculativeExecutor("HashSet", "read-write", seed=7)
    block_mode = SpeculativeExecutor("HashSet", "read-write", seed=7,
                                     conflict_mode="block")
    aborts_when_aborting = abort_mode.run(DISJOINT_SET_PROGRAMS).aborts
    blocked = block_mode.run(DISJOINT_SET_PROGRAMS)
    assert blocked.serializable
    assert blocked.aborts <= aborts_when_aborting


def test_block_mode_breaks_deadlocks():
    """Mutex policy blocks everyone instantly; the deadlock breaker must
    still drive the system to completion."""
    programs = [
        [("add", ("x",)), ("add", ("y",))],
        [("add", ("y",)), ("add", ("x",))],
    ]
    report = SpeculativeExecutor("HashSet", "mutex", seed=1,
                                 conflict_mode="block").run(programs)
    assert report.commits == 2
    assert report.serializable


def test_unknown_conflict_mode_rejected():
    with pytest.raises(ValueError):
        SpeculativeExecutor("HashSet", conflict_mode="wait-die")


@settings(max_examples=25, deadline=None)
@given(_programs, st.integers(0, 500))
def test_block_mode_serializability_property(programs, seed):
    report = SpeculativeExecutor("HashSet", "commutativity", seed=seed,
                                 conflict_mode="block").run(programs)
    assert report.commits == len(programs)
    assert report.serializable
