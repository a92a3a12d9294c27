"""Throughput harness: sweeps, policy ordering, multi-worker execution,
and the Session wiring."""

import pytest

from repro.api import Session
from repro.reporting import policy_comparison_table, workload_report_table
from repro.workloads import (BENCH_WORKLOADS, DEFAULT_WORKLOADS,
                             ThroughputHarness, WorkloadSpec)

BUILTINS = ("ListSet", "HashSet", "AssociationList", "HashTable",
            "ArrayList", "Accumulator")

SMALL = WorkloadSpec(name="small", transactions=4, ops_per_transaction=4,
                     key_space=6, seed=5)


def test_run_one_commits_everything():
    run = ThroughputHarness().run_one("HashSet", SMALL)
    assert run.commits == SMALL.transactions
    assert run.serializable
    assert run.operations >= SMALL.transactions * SMALL.ops_per_transaction
    assert run.ops_per_second > 0
    assert run.workload is SMALL


def test_sweep_covers_the_cross_product():
    harness = ThroughputHarness()
    runs = harness.sweep(structures=("HashSet", "Accumulator"),
                         workloads=(SMALL,),
                         policies=("commutativity", "mutex"))
    assert len(runs) == 2 * 1 * 2
    assert {(r.structure, r.policy) for r in runs} == {
        ("HashSet", "commutativity"), ("HashSet", "mutex"),
        ("Accumulator", "commutativity"), ("Accumulator", "mutex")}
    assert all(r.serializable for r in runs)


def test_runnable_structures_are_the_six_builtins():
    assert set(ThroughputHarness().runnable_structures()) == set(BUILTINS)


def test_default_workloads_share_keys_across_transactions():
    """The sweeps must exercise *non-disjoint* workloads: every
    transaction draws from one shared key space."""
    for workload in set(DEFAULT_WORKLOADS) | set(BENCH_WORKLOADS):
        harness = ThroughputHarness()
        programs = harness.generator.generate("HashSet", workload)
        keysets = [{args[0] for _, args in ops if args}
                   for ops in programs]
        shared = set.union(*keysets)
        assert any(keysets[i] & keysets[j]
                   for i in range(len(keysets))
                   for j in range(i + 1, len(keysets))), shared


@pytest.mark.parametrize("name", BUILTINS)
def test_commutativity_beats_read_write_somewhere(name):
    """The acceptance-criterion shape: on at least one non-disjoint
    bench workload per structure, the verified commutativity conditions
    admit strictly fewer aborts than read/write conflict detection."""
    harness = ThroughputHarness()
    wins = []
    for workload in BENCH_WORKLOADS:
        comm = harness.run_one(name, workload, policy="commutativity")
        rw = harness.run_one(name, workload, policy="read-write")
        assert comm.serializable and rw.serializable
        wins.append(comm.aborts < rw.aborts)
    assert any(wins), f"no strict commutativity win for {name}"


def test_mutex_conflicts_on_every_check():
    run = ThroughputHarness().run_one("HashSet", SMALL, policy="mutex")
    assert run.conflict_rate == 1.0
    assert run.serializable


# -- multi-worker execution ----------------------------------------------------

@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize("conflict_mode", ("abort", "block"))
def test_multi_worker_run_is_serializable(workers, conflict_mode):
    harness = ThroughputHarness(workers=workers)
    run = harness.run_one("HashSet", SMALL.with_(transactions=8),
                          conflict_mode=conflict_mode)
    assert run.workers == workers
    assert run.commits == 8
    assert run.serializable


def test_explicit_serial_harness_overrides_workload_hint():
    """A harness configured workers=1 must never be escalated to
    nondeterministic threaded execution by a spec's workers hint; with
    no harness setting, the hint applies."""
    hinted = SMALL.with_(workers=4)
    assert ThroughputHarness(workers=1).run_one("HashSet",
                                                hinted).workers == 1
    assert ThroughputHarness().run_one("HashSet", hinted).workers == 4
    assert ThroughputHarness(workers=2).run_one(
        "HashSet", hinted, workers=3).workers == 3


def test_threaded_workers_commit_everything():
    harness = ThroughputHarness(workers=3)
    run = harness.run_one("HashTable",
                          SMALL.with_(transactions=9,
                                      ops_per_transaction=6))
    assert run.commits == 9
    assert run.serializable


# -- Session wiring ------------------------------------------------------------

def test_session_run_workload_defaults():
    report = Session().run_workload("HashSet", transactions=4,
                                    ops_per_transaction=4, seed=5)
    assert report.commits == 4
    assert report.serializable
    assert report.workers == 1


def test_session_run_workload_profile_string_and_workers():
    report = Session().run_workload(
        "Accumulator", "write-heavy", transactions=6,
        ops_per_transaction=4, seed=2, workers=2)
    assert report.commits == 6
    assert report.workers == 2
    assert report.serializable


def test_session_run_workload_unknown_name_suggests():
    from repro.api import UnknownNameError
    with pytest.raises(UnknownNameError):
        Session().run_workload("HashSert")


def test_session_throughput_sweep():
    runs = Session().throughput_sweep(structures=("HashSet",),
                                      workloads=(SMALL,),
                                      policies=("commutativity",))
    assert len(runs) == 1
    assert runs[0].serializable


# -- reporting -----------------------------------------------------------------

def test_policy_comparison_table_shape():
    harness = ThroughputHarness()
    runs = harness.sweep(structures=("HashSet",), workloads=(SMALL,))
    table = policy_comparison_table(runs)
    assert "commutativity: aborts" in table
    assert "read-write: aborts" in table
    assert "mutex: aborts" in table
    assert "commutativity wins" in table
    assert "HashSet" in table and "small" in table


def test_workload_report_table_shape():
    harness = ThroughputHarness()
    runs = harness.sweep(structures=("HashSet",), workloads=(SMALL,),
                         policies=("commutativity",))
    table = workload_report_table(runs)
    assert "ops/s" in table and "serializable" in table
    assert "HashSet" in table


# -- sharding ------------------------------------------------------------------

def test_run_one_shards_precedence():
    """Same precedence scheme as workers: argument, then harness
    setting, then the workload's hint."""
    hinted = SMALL.with_(shards=4)
    assert ThroughputHarness().run_one("HashSet", SMALL).shards == 1
    assert ThroughputHarness().run_one("HashSet", hinted).shards == 4
    assert ThroughputHarness(shards=1).run_one("HashSet",
                                               hinted).shards == 1
    assert ThroughputHarness(shards=2).run_one(
        "HashSet", hinted, shards=8).shards == 8


def test_sweep_over_shard_counts():
    harness = ThroughputHarness()
    runs = harness.sweep(structures=("HashSet",), workloads=(SMALL,),
                         policies=("commutativity",),
                         shard_counts=(1, 4))
    assert [run.shards for run in runs] == [1, 4]
    assert all(run.serializable for run in runs)
    # Identical decisions either way at workers=1 (the sharded manager
    # only skips unconditionally-commuting pairs).
    assert runs[0].aborts == runs[1].aborts
    assert runs[0].report.commit_order == runs[1].report.commit_order


def test_sharded_multi_worker_run_is_serializable():
    harness = ThroughputHarness(workers=4, shards=4,
                                max_rounds=500_000)
    run = harness.run_one("HashTable", SMALL.with_(transactions=8))
    assert run.shards == 4 and run.workers == 4
    assert run.commits == 8
    assert run.serializable
    assert len(run.shard_stats) == 4


def test_scaling_workloads_are_non_disjoint():
    """The flat-vs-sharded comparison must stay honest: scaling
    workloads share one key space (and one preloaded structure)."""
    from repro.workloads import SCALING_WORKLOADS
    for workload in SCALING_WORKLOADS:
        harness = ThroughputHarness()
        programs = harness.generator.generate("HashSet", workload)
        keysets = [{args[0] for _, args in ops if args}
                   for ops in programs]
        assert any(keysets[i] & keysets[j]
                   for i in range(len(keysets))
                   for j in range(i + 1, len(keysets)))


# -- reporting: speedup + shard contention -------------------------------------

def test_policy_comparison_table_has_speedup_columns():
    harness = ThroughputHarness()
    runs = harness.sweep(structures=("HashSet",), workloads=(SMALL,))
    table = policy_comparison_table(runs)
    assert "commutativity speedup vs mutex" in table
    assert "read-write speedup vs mutex" in table
    assert "x" in table  # rendered ratios like 1.25x


def test_shard_contention_table_shape():
    from repro.reporting import shard_contention_table
    harness = ThroughputHarness(shards=4)
    runs = [harness.run_one("HashSet", SMALL)]
    table = shard_contention_table(runs)
    assert "shard" in table and "conflicts" in table
    # One row per shard.
    assert len(table.splitlines()) == 2 + 4
