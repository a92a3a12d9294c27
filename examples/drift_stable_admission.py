"""Drift-stable admission: semantic commutativity that survives state
drift.

The between conditions are verified against a fixed environment: ``s2``
is the state immediately after the logged operation ran.  The drift
guard (PR 4) therefore refuses any state-referencing condition once
other operations have executed — sound, but conservative exactly where
contention is highest: hot-key Set/Map pairs and preloaded ArrayList
index pairs fall back to the shard-router oracle.

The stability compiler (``repro.stability``) closes that gap offline:

    verified between conditions
        │  projector: arg/result-only disjuncts
        │  footprint: router-derived argument relations, r1 links
        ▼
    candidate weakenings ──quantified re-verifier──▶ drift-stable
                                                     conditions
        ▼
    Registry.register_stable_conditions  ──▶  gatekeeper drift guard

This example compiles the catalog, shows a few verdicts, and measures
the runtime effect on a write-heavy hot-key workload over a *preloaded*
ArrayList and HashTable: with ``stable=True`` the drift guard tries the
compiled condition before the conservative oracle, strictly reducing
conservative fallbacks while every execution stays identical to its
serial replay.

Run:  python examples/drift_stable_admission.py
"""

from repro.api import Session
from repro.reporting import drift_admission_table, stability_table
from repro.workloads import ThroughputHarness, WorkloadSpec

HOT_PRELOADED = WorkloadSpec(
    name="hotkey-preloaded", profile="write-heavy",
    distribution="hot-key", transactions=12, ops_per_transaction=6,
    key_space=24, value_space=3, preload=20, seed=5)


def main() -> None:
    session = Session()

    print("=== 1. compile: verified conditions -> stability verdicts ===")
    reports = session.compile_stable(["HashTable", "ArrayList"])
    for report in reports.values():
        print(f"  {report.summary()}")
    showcase = [p for p in reports["ArrayList"].pairs
                if p.pair_label in ("add_at;get", "add_at;add_at",
                                    "get;set")]
    print(stability_table({"ArrayList": type(reports["ArrayList"])(
        name="ArrayList", family="ArrayList", pairs=showcase)}))

    print("\n=== 2. run: plain drift guard vs --arm weakened ===")
    harness = ThroughputHarness(registry=session.registry)
    runs = []
    for structure in ("ArrayList", "HashTable"):
        plain = harness.run_one(structure, HOT_PRELOADED, workers=1,
                                shards=4)
        stable = harness.run_one(structure, HOT_PRELOADED, workers=1,
                                 shards=4, stable=True)
        runs += [plain, stable]
        assert plain.serializable and stable.serializable
        assert stable.stable_hits > 0
        assert stable.drift_fallbacks < plain.drift_fallbacks
        print(f"  {structure}: conservative fallbacks "
              f"{plain.drift_fallbacks} -> {stable.drift_fallbacks} "
              f"({stable.stable_hits} drifted checks admitted "
              f"semantically)")
    print()
    print(drift_admission_table(runs))

    print("\n=== 3. flat and sharded stable decisions are identical ===")
    flat = session.run_workload("ArrayList", HOT_PRELOADED, shards=1,
                                stable=True)
    sharded = session.run_workload("ArrayList", HOT_PRELOADED, shards=4,
                                   stable=True)
    assert flat.commit_order == sharded.commit_order
    assert flat.aborts == sharded.aborts
    print(f"  flat:    {flat.summary()}")
    print(f"  sharded: {sharded.summary()}")


if __name__ == "__main__":
    main()
