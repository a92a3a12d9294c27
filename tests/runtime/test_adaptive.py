"""Contention-adaptive policies: backoff deferral, wait-die ordering,
the hybrid per-shard fallback, and their executor integration."""

import pytest

from repro.runtime import (BackoffController, HybridController,
                           SpeculativeExecutor, Transaction,
                           WaitDieController, make_controller)
from repro.workloads import (BENCH_WORKLOADS, ThroughputHarness,
                             WorkloadGenerator)

HOTKEY = next(w for w in BENCH_WORKLOADS
              if w.label == "write-heavy-hotkey")


# -- controller units ----------------------------------------------------------

def test_make_controller_names():
    assert make_controller(None) is None
    assert make_controller("none") is None
    assert isinstance(make_controller("backoff"), BackoffController)
    assert isinstance(make_controller("wait-die"), WaitDieController)
    assert isinstance(make_controller("hybrid"), HybridController)
    with pytest.raises(ValueError):
        make_controller("optimistic-unicorn")


def test_executor_rejects_unknown_adaptive():
    with pytest.raises(ValueError):
        SpeculativeExecutor("HashSet", adaptive="optimistic-unicorn")


def test_backoff_defers_exponentially():
    controller = BackoffController(seed=1)
    txn = Transaction(0, [("add", ("a",))])
    assert not controller.deferred(txn, 0)
    txn.aborts = 1
    controller.on_abort(txn, now=10)
    first = txn.backoff_until - 10
    assert controller.deferred(txn, 10)
    assert not controller.deferred(txn, txn.backoff_until + 1)
    txn.aborts = 4
    controller.on_abort(txn, now=10)
    assert txn.backoff_until - 10 > first  # delay grows with aborts


def test_wait_die_ordering():
    controller = WaitDieController()
    older = Transaction(0, [])
    younger = Transaction(5, [])
    # Older requester waits for a younger holder; younger dies.
    assert controller.on_conflict(older, 5, (0,), "abort") == "block"
    assert controller.on_conflict(younger, 0, (0,), "abort") == "abort"
    # No identified holder: fall through to the conflict mode.
    assert controller.on_conflict(older, None, (0,), "abort") == "abort"


def test_hybrid_trips_per_shard():
    controller = HybridController(window=4, threshold=0.5)
    txn = Transaction(1, [])
    for _ in range(4):
        controller.on_outcome((0,), conflicted=True)
        controller.on_outcome((1,), conflicted=False)
    assert controller.tripped(0)
    assert not controller.tripped(1)
    assert controller.on_conflict(txn, 2, (0,), "abort") == "block"
    assert controller.on_conflict(txn, 2, (1,), "abort") == "abort"
    # The window slides: successes cool a tripped shard back down.
    for _ in range(4):
        controller.on_outcome((0,), conflicted=False)
    assert not controller.tripped(0)


def test_hybrid_validation():
    with pytest.raises(ValueError):
        HybridController(window=1)
    with pytest.raises(ValueError):
        HybridController(threshold=0.0)


# -- executor integration ------------------------------------------------------

@pytest.mark.parametrize("adaptive", ("backoff", "wait-die", "hybrid"))
def test_adaptive_serial_commits_everything(adaptive):
    harness = ThroughputHarness(max_rounds=500_000)
    run = harness.run_one("HashSet", HOTKEY, policy="commutativity",
                          workers=1, adaptive=adaptive)
    assert run.commits == HOTKEY.transactions
    assert run.serializable
    assert run.report.adaptive == adaptive


@pytest.mark.parametrize("adaptive", ("backoff", "wait-die", "hybrid"))
def test_adaptive_serial_is_deterministic(adaptive):
    """workers=1 stays reproducible from the seed with every controller
    (backoff jitter comes from a seeded rng, not the clock)."""
    programs = WorkloadGenerator().generate("HashSet", HOTKEY)
    traces = []
    for _ in range(2):
        report = SpeculativeExecutor(
            "HashSet", "commutativity", seed=HOTKEY.seed,
            adaptive=adaptive, max_rounds=500_000).run(programs)
        traces.append((report.commit_order, report.aborts,
                       report.operations, report.txn_aborts))
    assert traces[0] == traces[1]


#: The six runnable builtins.
RUNNABLE = ThroughputHarness().runnable_structures()


@pytest.mark.parametrize("name, shards", [
    *(pytest.param(name, 1, id=name) for name in RUNNABLE),
    *(pytest.param(name, 4, id=f"{name}-shards4") for name in RUNNABLE),
])
def test_hybrid_strictly_reduces_aborts_on_hotkey(name, shards):
    """The acceptance-criterion shape: on the hot-key write-heavy
    workload the hybrid policy (speculate, then block per tripped
    shard) must abort strictly less than plain commutativity.  The
    controller keeps one conflict window per shard, so four shards
    make a different decision sequence from one."""
    harness = ThroughputHarness(max_rounds=500_000)
    plain = harness.run_one(name, HOTKEY, policy="commutativity",
                            workers=1, shards=shards)
    hybrid = harness.run_one(name, HOTKEY, policy="commutativity",
                             workers=1, shards=shards, adaptive="hybrid")
    assert plain.serializable and hybrid.serializable
    assert plain.aborts > 0
    assert hybrid.aborts < plain.aborts


def test_adaptive_mixed_block_and_abort_responses_converge():
    """Regression: adaptive modes mix block and abort responses, so an
    abort must wake blocked waiters — otherwise the abort churn keeps
    the scheduler busy, the deadlock breaker never fires, and blocked
    transactions starve (HashTable/write-heavy-hotkey livelocked at
    500k rounds)."""
    harness = ThroughputHarness(max_rounds=500_000)
    for name in ("HashTable", "AssociationList", "ListSet"):
        run = harness.run_one(name, HOTKEY, policy="commutativity",
                              workers=1, shards=1, adaptive="hybrid")
        assert run.commits == HOTKEY.transactions, name
        assert run.serializable


@pytest.mark.parametrize("adaptive", ("backoff", "wait-die", "hybrid"))
def test_adaptive_threaded_sharded_serializable(adaptive):
    harness = ThroughputHarness(max_rounds=500_000)
    run = harness.run_one("HashSet", HOTKEY, policy="commutativity",
                          workers=3, shards=4, adaptive=adaptive)
    assert run.commits == HOTKEY.transactions
    assert run.serializable
