"""Proved-tier admissions at run time: the gatekeeper counts them
separately, never decides differently on them, and flat and sharded
managers agree — with every execution identical to its serial replay."""

import pytest

from repro.api import Session
from repro.eval import Scope
from repro.workloads import ThroughputHarness, WorkloadSpec

#: The acceptance workload shape (see tests/stability): write-heavy
#: hot-key traffic over a preloaded structure.
GATE = WorkloadSpec(name="proved-gate", profile="write-heavy",
                    distribution="hot-key", transactions=12,
                    ops_per_transaction=6, key_space=24, value_space=3,
                    preload=20, seed=9)

#: Set/Map compile in well under a second with the prover; ArrayList's
#: partition enumeration (~tens of seconds) stays out of tier-1 and is
#: covered per-pair in test_native.py.
FAST = ("HashSet", "HashTable")


@pytest.fixture(scope="module")
def proved_session() -> Session:
    session = Session(scope=Scope(), cache=False)
    session.compile_stable(names=FAST, prover=True)
    return session


@pytest.mark.parametrize("structure", FAST)
def test_proved_hits_are_counted_on_their_own_tier(proved_session,
                                                   structure):
    harness = ThroughputHarness(registry=proved_session.registry)
    run = harness.run_one(structure, GATE, workers=1, shards=1,
                          stable=True)
    assert run.serializable, run.summary()
    # Every Set/Map weakening promotes to the proved tier, so all
    # semantic drift admissions land on proved_hits.
    assert run.proved_hits > 0
    assert run.stable_hits == 0


@pytest.mark.parametrize("structure", FAST)
def test_tier_never_changes_the_decision(proved_session, structure):
    # The same registry, with the same conditions demoted to the
    # weakened tier, must produce the identical execution — the tier
    # is decision-visible (counters) but never decision-changing.
    from dataclasses import replace
    registry = proved_session.registry
    proved_conds = registry.stable_conditions(structure)
    harness = ThroughputHarness(registry=registry)
    proved = harness.run_one(structure, GATE, workers=1, shards=1,
                             stable=True)
    registry.register_stable_conditions(
        structure, tuple(replace(c, tier="weakened")
                         for c in proved_conds), replace=True)
    try:
        demoted = harness.run_one(structure, GATE, workers=1, shards=1,
                                  stable=True)
    finally:
        registry.register_stable_conditions(structure, proved_conds,
                                            replace=True)
    assert (demoted.commits, demoted.aborts,
            demoted.report.commit_order) \
        == (proved.commits, proved.aborts, proved.report.commit_order)
    assert demoted.stable_hits == proved.proved_hits
    assert demoted.proved_hits == 0


@pytest.mark.parametrize("shards", (2, 4))
def test_flat_and_sharded_proved_decisions_identical(proved_session,
                                                     shards):
    harness = ThroughputHarness(registry=proved_session.registry)
    flat = harness.run_one("HashTable", GATE, workers=1, shards=1,
                           stable=True)
    sharded = harness.run_one("HashTable", GATE, workers=1,
                              shards=shards, stable=True)
    assert flat.serializable and sharded.serializable
    assert (flat.commits, flat.aborts, flat.report.commit_order) \
        == (sharded.commits, sharded.aborts,
            sharded.report.commit_order)


def test_shard_stats_surface_proved_hits(proved_session):
    from repro.runtime import ConflictManager
    manager = ConflictManager("HashTable", shards=2,
                              registry=proved_session.registry,
                              stable=True)
    for stats in manager.shard_stats():
        assert "proved_hits" in stats
