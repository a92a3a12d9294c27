"""Rendering of the drift-admission and stability tables, plus the
graceful single-shard / single-policy behaviour of the shard and
policy tables."""

from repro.reporting import (drift_admission_table, percentile,
                             policy_comparison_table,
                             shard_contention_table, stability_table)
from repro.workloads import ThroughputHarness, WorkloadSpec

SMALL = WorkloadSpec(name="small", transactions=4, ops_per_transaction=4,
                     key_space=8, value_space=3, seed=3)


def _runs(policies=("commutativity",), shards=1):
    harness = ThroughputHarness(shards=shards)
    return [harness.run_one("HashSet", SMALL, policy=policy)
            for policy in policies]


def test_percentile_nearest_rank():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 95) == 4.0
    assert percentile([7.0], 50) == 7.0


def test_shard_contention_table_collapses_single_shard_runs():
    table = shard_contention_table(_runs(shards=1))
    assert "no per-shard breakdown" in table
    assert "|" not in table  # a note, not an empty-column table


def test_shard_contention_table_renders_sharded_runs():
    table = shard_contention_table(_runs(shards=4))
    assert "shard" in table and "conflicts" in table


def test_policy_table_drops_columns_it_cannot_populate():
    single = policy_comparison_table(_runs(("commutativity",)))
    assert "speedup" not in single
    assert "commutativity wins" not in single
    assert "shards" not in single
    full = policy_comparison_table(
        _runs(("commutativity", "read-write", "mutex")))
    assert "speedup vs mutex" in full
    assert "commutativity wins" in full


def test_policy_table_keeps_shard_column_for_sharded_runs():
    table = policy_comparison_table(_runs(("commutativity",), shards=4))
    assert "shards" in table


def test_drift_admission_table_notes_quiet_runs():
    table = drift_admission_table(_runs())
    assert isinstance(table, str)


def test_stability_table_renders_reports():
    from repro.api import Session
    from repro.eval import Scope
    session = Session(cache=False, scope=Scope().smaller())
    reports = session.compile_stable(["HashSet"], register=False)
    table = stability_table(reports)
    assert "add_;contains" in table
    assert "weakened" in table and "v1 ~= v2" in table
