"""Throughput benchmark: the workload harness over generated (not
hand-written) transaction mixes, with the multi-worker executor
measured against the deterministic serial mode on identical programs.
The policy ordering on generated workloads is a row of the tier-1
gate table (``tests/test_gates.py``).
"""

from __future__ import annotations

from repro.workloads import ThroughputHarness, WorkloadSpec


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
