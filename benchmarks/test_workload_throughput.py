"""Throughput benchmark: the workload harness over generated (not
hand-written) transaction mixes.

Extends the ablation of ``test_runtime_speedup.py`` from one
hand-written disjoint workload to the parameterized generator: seeded
op-mix/key-distribution workloads over a *shared* key space, swept
through every conflict-detection policy, with the multi-worker executor
measured against the deterministic serial mode on identical programs.
"""

from __future__ import annotations

from repro.reporting import policy_comparison_table
from repro.workloads import (BENCH_WORKLOADS, ThroughputHarness,
                             WorkloadSpec)

STRUCTURES = ("HashSet", "HashTable", "ArrayList", "Accumulator")


def test_policy_sweep_on_generated_workloads(benchmark):
    """The headline table on generated workloads: per structure, the
    commutativity policy admits strictly fewer aborts than read-write
    on at least one non-disjoint workload."""
    harness = ThroughputHarness()

    def sweep():
        return harness.sweep(structures=STRUCTURES,
                             workloads=BENCH_WORKLOADS)

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(policy_comparison_table(runs))
    assert all(run.serializable for run in runs)
    for structure in STRUCTURES:
        wins = [
            workload for workload in BENCH_WORKLOADS
            if _aborts(runs, structure, workload, "commutativity")
            < _aborts(runs, structure, workload, "read-write")]
        assert wins, f"no strict commutativity win for {structure}"


def _aborts(runs, structure, workload, policy):
    return sum(run.aborts for run in runs
               if run.structure == structure
               and run.workload.label == workload.label
               and run.policy == policy)


def test_multi_worker_throughput(benchmark):
    """Multi-worker execution of the same generated programs:
    correctness (serializability) at every worker count, throughput
    reported for the curious."""
    workload = WorkloadSpec(name="bench-threads", profile="mixed",
                            transactions=12, ops_per_transaction=8,
                            key_space=12, seed=7)

    def run_all():
        results = {}
        for workers in (1, 2, 4):
            harness = ThroughputHarness(workers=workers)
            run = harness.run_one("HashSet", workload)
            assert run.serializable
            assert run.commits == workload.transactions
            results[workers] = run.ops_per_second
        return results

    throughput = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print(f"\nops/s by workers: "
          f"{ {w: round(v) for w, v in throughput.items()} }")
