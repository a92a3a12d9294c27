"""Executor edge cases: deadlock-breaker behaviour, abort-status
surfacing, unified concrete dispatch, and the multi-worker mode."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Registry
from repro.eval import Record
from repro.impls import invoke, invoke_concrete
from repro.runtime import (ConflictManager, ExecutionReport,
                           LocalAdmissionBackend, SpeculativeExecutor,
                           Transaction, TxnStatus)
from repro.runtime.executor import StructureHandle
from repro.specs.interface import (DataStructureSpec, Operation, Param,
                                   parse_pre)
from repro.logic.sorts import Sort
from repro.workloads import ThroughputHarness, WorkloadSpec


def _executor(**kwargs):
    return SpeculativeExecutor("HashSet", "commutativity", **kwargs)


def _fresh_state(executor):
    structure = StructureHandle(
        executor.registry.new_instance(executor.ds_name),
        executor.ds_name, executor.registry)
    gatekeeper = ConflictManager(executor.ds_name, executor.policy,
                                 registry=executor.registry)
    report = ExecutionReport(ds_name=executor.ds_name,
                             policy=executor.policy)
    return structure, gatekeeper, report


# -- deadlock breaker ----------------------------------------------------------

def test_break_deadlock_all_transactions_at_op_zero():
    """All-blocked with every transaction at next_op == 0: nothing can
    be rolled back, the lowest-id transaction survives, and no aborts
    are counted."""
    executor = _executor(conflict_mode="block")
    structure, gatekeeper, report = _fresh_state(executor)
    transactions = [Transaction(i, [("add", ("a",))]) for i in range(3)]
    blocked = {0, 1, 2}
    survivor = executor._break_deadlock(transactions, blocked, structure,
                                        gatekeeper, report)
    assert survivor.txn_id == 0          # tie on next_op=0 -> lowest id
    assert report.aborts == 0            # nothing to roll back
    assert blocked == {1, 2}             # only the survivor may proceed
    assert all(t.status is TxnStatus.RUNNING for t in transactions)


def test_break_deadlock_survivor_tie_breaking():
    """Ties on next_op go to the lowest transaction id; more-advanced
    transactions always win over less-advanced ones."""
    executor = _executor(conflict_mode="block")
    structure, gatekeeper, report = _fresh_state(executor)
    ops = [("add", ("a",))] * 4
    transactions = [Transaction(i, list(ops)) for i in range(4)]
    transactions[1].next_op = 2
    transactions[3].next_op = 2
    transactions[2].next_op = 1
    blocked = {0, 1, 2, 3}
    survivor = executor._break_deadlock(transactions, blocked, structure,
                                        gatekeeper, report)
    assert survivor.txn_id == 1          # max next_op, then lowest id
    assert blocked == {0, 2, 3}


def test_break_deadlock_aborts_only_transactions_with_progress():
    """Victims that executed operations are rolled back and counted;
    victims still at op 0 are merely blocked."""
    executor = _executor(conflict_mode="block")
    structure, gatekeeper, report = _fresh_state(executor)
    transactions = [Transaction(i, [("add", (f"x{i}",)), ("size", ())])
                    for i in range(3)]
    # Execute txn 2's first op for real so its rollback has work to do.
    executor._step(transactions[2], structure, gatekeeper, report, set())
    assert structure.state()["size"] == 1
    blocked = {0, 1, 2}
    # txn 2 is most advanced: it survives, nobody has progress to abort.
    assert executor._break_deadlock(transactions, blocked, structure,
                                    gatekeeper, report).txn_id == 2
    assert report.aborts == 0
    # Now block txn 2 again with txn 0 advanced further via next_op.
    transactions[0].next_op = 2
    blocked = {0, 1, 2}
    survivor = executor._break_deadlock(transactions, blocked, structure,
                                        gatekeeper, report)
    assert survivor.txn_id == 0
    assert report.aborts == 1            # txn 2's progress rolled back
    assert transactions[2].status is TxnStatus.ABORTED
    assert structure.state()["size"] == 0


def test_block_mode_deadlock_storm_converges():
    """Mutex + block over many transactions triggers repeated deadlock
    episodes; every one must make progress."""
    programs = [[("add", (f"k{i % 3}",)), ("contains", ("k0",))]
                for i in range(6)]
    report = SpeculativeExecutor("HashSet", "mutex", seed=3,
                                 conflict_mode="block").run(programs)
    assert report.commits == 6
    assert report.serializable


# -- abort-status surfacing ----------------------------------------------------

def test_mark_aborted_sets_aborted_status():
    txn = Transaction(0, [("add", ("a",))])
    txn.next_op = 1
    txn.mark_aborted()
    assert txn.status is TxnStatus.ABORTED
    assert txn.next_op == 0
    assert txn.aborts == 1
    assert txn.ever_aborted
    txn.restart()
    assert txn.status is TxnStatus.RUNNING
    assert txn.aborts == 1


def test_report_surfaces_per_transaction_aborts():
    programs = [
        [("contains", ("x",)), ("add", ("x",))],
        [("add", ("x",)), ("remove", ("x",))],
        [("add", ("disjoint",))],
    ]
    report = SpeculativeExecutor("HashSet", "read-write",
                                 seed=1).run(programs)
    assert report.commits == 3
    assert set(report.txn_aborts) == {0, 1, 2}
    assert sum(report.txn_aborts.values()) == report.aborts
    assert report.aborts > 0
    assert report.ever_aborted  # at least one transaction retried
    assert all(status is TxnStatus.COMMITTED
               for status in report.txn_statuses.values())


def test_report_timing_fields():
    report = SpeculativeExecutor("HashSet").run([[("add", ("a",))]])
    assert report.wall_seconds > 0
    assert report.ops_per_second > 0
    assert report.conflict_rate == 0.0


def test_unrun_report_is_not_serializable():
    """Regression: with both states still None, ``None == None`` made a
    never-executed report read as vacuously serializable."""
    report = ExecutionReport(ds_name="HashSet", policy="commutativity")
    assert report.final_state is None and report.serial_state is None
    assert report.serializable is False
    report = SpeculativeExecutor("HashSet").run([[("add", ("a",))]])
    assert report.serializable is True


def test_committed_operations_exclude_retried_work():
    programs = [
        [("contains", ("x",)), ("add", ("x",))],
        [("add", ("x",)), ("remove", ("x",))],
    ]
    report = SpeculativeExecutor("HashSet", "read-write",
                                 seed=1).run(programs)
    assert report.committed_operations == 4  # one copy of each program
    assert report.operations >= report.committed_operations
    assert report.committed_ops_per_second > 0


# -- unified concrete dispatch -------------------------------------------------

def test_invoke_concrete_keeps_raw_result_for_discard_variants():
    from repro.api import DEFAULT_REGISTRY
    impl = DEFAULT_REGISTRY.new_instance("HashSet")
    op = DEFAULT_REGISTRY.spec("HashSet").operations["add_"]
    raw, visible = invoke_concrete(impl, op, ("a",))
    assert raw is True and visible is None
    # String names keep the trailing-underscore convention.
    raw, visible = invoke_concrete(impl, "remove_", ("a",))
    assert raw is True and visible is None
    assert invoke(impl, "add", ("b",)) is True


def _cell_registry():
    """A custom structure whose discard variant does NOT follow the
    trailing-underscore naming convention: only ``base_name`` links
    ``writeQuiet`` to the concrete ``write`` method."""

    class CellImpl:
        def __init__(self):
            self.value = "init"

        def write(self, v):
            old = self.value
            self.value = v
            return old

        def abstract_state(self):
            return Record(value=self.value)

    fields = {"value": Sort.OBJ}
    params = (Param("v", Sort.OBJ),)
    pre = parse_pre("v ~= null", fields, params, {}, None)

    def write_sem(state, args):
        return Record(value=args[0]), state["value"]

    def write_quiet_sem(state, args):
        return Record(value=args[0]), None

    operations = {
        "write": Operation(name="write", params=params,
                           result_sort=Sort.OBJ, precondition=pre,
                           semantics=write_sem, mutator=True),
        "writeQuiet": Operation(name="writeQuiet", params=params,
                                result_sort=None, precondition=pre,
                                semantics=write_quiet_sem, mutator=True,
                                base_name="write"),
    }
    spec = DataStructureSpec(
        name="Cell", state_fields=fields, principal_field=None,
        operations=operations, initial_state=Record(value="init"),
        invariant=lambda state: True,
        states=lambda scope: iter([Record(value=v)
                                   for v in scope.objects]),
        arguments=lambda op, scope: iter([(v,) for v in scope.objects]))
    registry = Registry()
    registry.register_spec("Cell", spec, implementation=CellImpl)
    return registry


def test_executor_dispatches_custom_discard_variant_via_base_name():
    """The bug this PR fixes: the executor used to resolve concrete
    methods by stripping trailing underscores while ``impls.invoke``
    did its own equivalent — a custom ``writeQuiet`` (base ``write``)
    crashed or diverged.  Routed through the canonical helper it runs,
    logs the raw result, and replays serially."""
    registry = _cell_registry()
    report = SpeculativeExecutor(
        "Cell", "commutativity", registry=registry).run(
            [[("writeQuiet", ("a",)), ("write", ("b",))]])
    assert report.commits == 1
    assert report.final_state == Record(value="b")
    assert report.serializable


def test_transaction_record_logs_base_name():
    """A discard variant's undo resolves through its base operation's
    inverse (Table 5.10), from the raw result the client never sees,
    and ``Transaction.record`` logs it."""
    from repro.api import DEFAULT_REGISTRY
    op = DEFAULT_REGISTRY.spec("HashSet").operations["add_"]
    undo = DEFAULT_REGISTRY.resolve_undo("HashSet", op, ("a",), True)
    assert undo == (("remove", ("a",)),)  # add's inverse, raw result True
    txn = Transaction(0, [("add_", ("a",))])
    txn.record(op, undo, None)
    assert txn.next_op == 1
    assert txn.results == [None]
    assert txn.undo_log == [undo]


def test_rollback_of_discard_variants_after_record():
    """End to end: a discard-variant mutation recorded through the
    unified path must roll back exactly (the executor crash scenario
    the divergent inline logging used to risk)."""
    programs = [
        [("add_", ("x",)), ("remove_", ("x",)), ("add", ("y",))],
        [("contains", ("x",)), ("add_", ("x",))],
    ]
    for seed in range(5):
        report = SpeculativeExecutor("HashSet", "read-write",
                                     seed=seed).run(programs)
        assert report.commits == 2
        assert report.serializable


# -- partial condition vocabulary (EvalError -> conservative conflict) ---------

def test_unevaluable_condition_reports_conflict_instead_of_raising():
    """An ArrayList between condition may index the logged operation's
    older snapshot with the incoming operation's argument, which is only
    in-range against the current state.  The gatekeeper must treat the
    unevaluable condition as a conflict, never crash."""
    gk = ConflictManager("ArrayList")
    before = Record(elems=("v0",), size=1)
    current = Record(elems=("v0", "v1", "v2", "v3", "v4"), size=5)
    from repro.runtime import LoggedOperation
    gk.record(LoggedOperation(txn_id=1, op_name="lastIndexOf",
                              args=("v0",), result=0, before=before,
                              after=before, undo=()))
    assert gk.admits(2, "remove_at", (3,), current) is False
    assert gk.counters()["conflicts"] == 1


@pytest.mark.parametrize("profile", ("read-heavy", "mixed", "write-heavy"))
def test_generated_arraylist_workloads_never_crash_admission(profile):
    """Regression: generated ArrayList workloads used to crash the
    executor with an uncaught EvalError from condition evaluation on
    ~40% of mixed-profile seeds (e.g. write-heavy seed 2, 10x8)."""
    from repro.api import Session
    session = Session()
    for seed in range(6):
        report = session.run_workload(
            "ArrayList", profile, transactions=6, ops_per_transaction=6,
            key_space=8, seed=seed)
        assert report.commits == 6
        assert report.serializable, (profile, seed, report.summary())


def test_review_repro_arraylist_write_heavy_seed2():
    from repro.api import Session
    report = Session().run_workload(
        "ArrayList", "write-heavy", transactions=10,
        ops_per_transaction=8, seed=2)
    assert report.commits == 10
    assert report.serializable


# -- executor parameter validation ---------------------------------------------

def test_invalid_workers_rejected():
    with pytest.raises(ValueError):
        _executor(workers=0)


# -- multi-worker serializability ----------------------------------------------

_ops = st.sampled_from([
    ("add", ("a",)), ("add", ("b",)), ("remove", ("a",)),
    ("contains", ("b",)), ("size", ()), ("add_", ("c",)),
    ("remove_", ("b",)),
])
_programs = st.lists(st.lists(_ops, min_size=1, max_size=3),
                     min_size=2, max_size=4)


@settings(max_examples=15, deadline=None)
@given(_programs, st.integers(0, 100), st.integers(2, 4))
def test_threaded_serializability_property(programs, seed, workers):
    """Whatever the thread interleaving, the committed execution equals
    its serial replay in commit order."""
    report = SpeculativeExecutor("HashSet", "commutativity", seed=seed,
                                 workers=workers, max_rounds=100_000) \
        .run(programs)
    assert report.commits == len(programs)
    assert report.serializable


@settings(max_examples=15, deadline=None)
@given(_programs, st.integers(0, 100), st.integers(2, 4),
       st.sampled_from((2, 4, 8)))
def test_threaded_sharded_serializability_property(programs, seed,
                                                   workers, shards):
    """The fine-grained sharded mode: per-shard lock acquisition in
    ascending order, admission only against interacting regions — every
    thread interleaving must still equal its serial replay."""
    report = SpeculativeExecutor("HashSet", "commutativity", seed=seed,
                                 workers=workers, shards=shards,
                                 max_rounds=100_000).run(programs)
    assert report.commits == len(programs)
    assert report.serializable


@settings(max_examples=10, deadline=None)
@given(_programs, st.integers(0, 100))
def test_threaded_sharded_block_mode_property(programs, seed):
    report = SpeculativeExecutor("HashSet", "commutativity", seed=seed,
                                 workers=3, shards=4,
                                 conflict_mode="block",
                                 max_rounds=100_000).run(programs)
    assert report.commits == len(programs)
    assert report.serializable


class _LateCommitBackend(LocalAdmissionBackend):
    """Managers whose commits pause right after unlocking, so other
    workers run before the committing worker is back."""

    def conflict_manager(self, ds_name, **kwargs):
        manager = super().conflict_manager(ds_name, **kwargs)
        release, unlock = manager.release, manager.unlock
        committing = threading.local()

        def late_release(txn_id, reason="commit"):
            committing.flag = reason == "commit"
            release(txn_id, reason=reason)

        def late_unlock(shard_ids):
            unlock(shard_ids)
            if getattr(committing, "flag", False):
                committing.flag = False
                time.sleep(0.002)
        manager.release, manager.unlock = late_release, late_unlock
        return manager


@pytest.mark.parametrize("shards", (1, 4))
def test_commit_order_is_taken_before_the_commit_unlocks(shards):
    """A transaction that steps against a committed transaction's
    released log must follow it in the commit order, however late the
    committing worker gets back after unlocking."""
    harness = ThroughputHarness(backend=_LateCommitBackend(),
                                max_rounds=100_000)
    for seed in range(8):
        workload = WorkloadSpec(profile="write-heavy",
                                distribution="hot-key", transactions=16,
                                ops_per_transaction=8, key_space=32,
                                value_space=3, preload=16, seed=seed)
        run = harness.run_one("HashSet", workload, workers=4,
                              shards=shards)
        assert run.commits == workload.transactions
        assert run.serializable, seed


def test_setup_program_prepopulates_and_replays():
    """A load-phase program seeds the structure outside any transaction
    and is counted in neither operations nor the serial replay's
    transaction order — but both executions start from it."""
    setup = [("add", ("warm",))]
    programs = [[("contains", ("warm",)), ("add", ("cold",))]]
    report = SpeculativeExecutor("HashSet").run(programs, setup=setup)
    assert report.operations == 2  # the setup op is not counted
    assert report.serializable
    assert report.final_state["contents"] == frozenset({"warm", "cold"})


@settings(max_examples=10, deadline=None)
@given(_programs, st.integers(0, 100))
def test_threaded_block_mode_property(programs, seed):
    report = SpeculativeExecutor("HashSet", "read-write", seed=seed,
                                 workers=3, conflict_mode="block",
                                 max_rounds=100_000).run(programs)
    assert report.commits == len(programs)
    assert report.serializable


def test_serial_mode_still_deterministic():
    """workers=1 must stay byte-for-byte reproducible from the seed."""
    programs = [[("add", ("a",)), ("remove", ("b",))],
                [("add", ("b",)), ("contains", ("a",))],
                [("size", ()), ("add", ("a",))]]
    reports = [SpeculativeExecutor("HashSet", "read-write",
                                   seed=9).run(programs)
               for _ in range(3)]
    assert len({r.aborts for r in reports}) == 1
    assert len({tuple(r.commit_order) for r in reports}) == 1
    assert len({r.operations for r in reports}) == 1
