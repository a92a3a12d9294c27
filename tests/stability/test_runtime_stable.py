"""Drift-stable admission at run time: the gatekeeper's stable path,
registry/session plumbing, and the acceptance properties — on
write-heavy hot-key *preloaded* workloads the armed weakened tier
strictly reduces conservative fallbacks while sharded decisions remain
identical to the flat log and every execution stays identical to its
serial replay, across all six built-ins and a custom structure."""

import pytest
from hypothesis import given, settings, strategies as st

from stability_fixture import ALL_STRUCTURES

from repro.api import DuplicateNameError, Registry
from repro.eval import Record
from repro.runtime import Gatekeeper, LoggedOperation, conflict_manager
from repro.stability import StableCondition
from repro.workloads import ThroughputHarness, WorkloadSpec

#: The acceptance workload shape: write-heavy hot-key traffic over a
#: preloaded structure (deep enough that admissions outlive their
#: verified environment).
GATE = WorkloadSpec(name="stability-gate", profile="write-heavy",
                    distribution="hot-key", transactions=12,
                    ops_per_transaction=6, key_space=24, value_space=3,
                    preload=20, seed=5)

#: A lighter preloaded mix for the per-structure property sweep.
SWEEP = WorkloadSpec(name="stability-sweep", profile="mixed",
                     distribution="hot-key", transactions=6,
                     ops_per_transaction=4, key_space=12, value_space=3,
                     preload=10, seed=0)


# -- gatekeeper stable path ---------------------------------------------------

def _drifted_map_states():
    from repro.eval.values import FMap
    before = Record(contents=FMap({}), size=0)
    after = Record(contents=FMap({"k1": "x"}), size=1)
    drifted = Record(contents=FMap({"k1": "x", "k9": "y"}), size=2)
    return before, after, drifted


def _map_registry_with_stable() -> Registry:
    registry = Registry.with_builtins()
    spec = registry.spec("HashTable")
    registry.register_stable_conditions(
        "HashTable", (StableCondition(family="Map", m1="put_", m2="get",
                                      text="k1 ~= k2", spec=spec),))
    return registry


def test_stable_condition_admits_drifted_disjoint_pair():
    registry = _map_registry_with_stable()
    before, after, drifted = _drifted_map_states()
    for stable in (False, True):
        gk = Gatekeeper("HashTable", registry=registry, stable=stable)
        gk.record(LoggedOperation(txn_id=1, op_name="put_",
                                  args=("k1", "x"), result=None,
                                  before=before, after=after))
        assert gk.admits(2, "get", ("k2",), drifted)
        if stable:
            assert gk.counters()["stable_hits"] == 1
            assert gk.counters()["drift_fallbacks"] == 0
        else:
            # The plain drift guard resolves the same pair through the
            # conservative router oracle.
            assert gk.counters()["stable_hits"] == 0
            assert gk.counters()["drift_fallbacks"] == 1
            assert gk.counters()["fallback_admits"] == 1


def test_stable_condition_false_falls_back_conservatively():
    registry = _map_registry_with_stable()
    before, after, drifted = _drifted_map_states()
    gk = Gatekeeper("HashTable", registry=registry, stable=True)
    gk.record(LoggedOperation(txn_id=1, op_name="put_", args=("k1", "x"),
                              result=None, before=before, after=after))
    # Same key: the weakening is false, the router sees one region.
    assert not gk.admits(2, "get", ("k1",), drifted)
    assert gk.counters()["stable_hits"] == 0
    assert gk.counters()["drift_fallbacks"] == 1


def test_stable_without_compiled_conditions_raises():
    registry = Registry.with_builtins()
    with pytest.raises(ValueError, match="compile_stable"):
        Gatekeeper("HashTable", registry=registry, stable=True)
    with pytest.raises(ValueError):
        conflict_manager("HashTable", shards=4, registry=registry,
                         stable=True)


def test_register_stable_conditions_guards_duplicates():
    registry = _map_registry_with_stable()
    spec = registry.spec("HashTable")
    conds = (StableCondition(family="Map", m1="put_", m2="get",
                             text="k1 ~= k2", spec=spec),)
    with pytest.raises(DuplicateNameError):
        registry.register_stable_conditions("HashTable", conds)
    registry.register_stable_conditions("HashTable", conds, replace=True)
    assert len(registry.stable_conditions("HashTable")) == 1


# -- session plumbing ---------------------------------------------------------

def test_compile_stable_registers_on_the_session_registry(stable_session):
    registry = stable_session.registry
    for name in ALL_STRUCTURES:
        assert registry.has_stable_conditions(name), name
    # Weakened pairs exist exactly where the reports say they do.
    assert any(c.m1 == "put_" and c.m2 == "get"
               for c in registry.stable_conditions("HashTable"))
    assert any("i2 < i1" in c.text
               for c in registry.stable_conditions("ArrayList"))
    # The custom Register earns its observer-pinned weakening.
    assert any(c.text == "v2 = r1"
               for c in registry.stable_conditions("Register"))


def test_run_workload_accepts_stable(stable_session):
    report = stable_session.run_workload("HashTable", SWEEP, stable=True)
    assert report.stable and report.serializable


# -- acceptance: the drift-admission gate ------------------------------------

@pytest.mark.parametrize("structure", ("ArrayList", "HashTable"))
@pytest.mark.parametrize("shards", (1, 4))
def test_stable_strictly_reduces_conservative_fallbacks(
        stable_session, structure, shards):
    harness = ThroughputHarness(registry=stable_session.registry)
    plain = harness.run_one(structure, GATE, workers=1, shards=shards)
    stable = harness.run_one(structure, GATE, workers=1, shards=shards,
                             stable=True)
    assert plain.serializable and stable.serializable
    assert stable.stable_hits > 0
    assert stable.drift_fallbacks < plain.drift_fallbacks
    # Every drifted check the stable condition certified skipped the
    # oracle: hits + fallbacks account for all drift-guard traffic.
    assert stable.stable_hits + stable.drift_fallbacks \
        == stable.drift_checks


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_sweep_flat_and_sharded_stable_decisions_agree(stable_session,
                                                       structure):
    harness = ThroughputHarness(registry=stable_session.registry)
    flat = harness.run_one(structure, SWEEP, workers=1, shards=1,
                           stable=True)
    sharded = harness.run_one(structure, SWEEP, workers=1, shards=4,
                              stable=True)
    assert flat.serializable and sharded.serializable
    assert flat.commits == sharded.commits
    assert flat.aborts == sharded.aborts
    assert flat.report.commit_order == sharded.report.commit_order
    assert flat.report.final_state == sharded.report.final_state


# -- acceptance: property-tested serializability under drift ------------------

@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), shards=st.sampled_from((1, 4)),
       structure=st.sampled_from(ALL_STRUCTURES))
def test_stable_admission_property(stable_session, structure, seed,
                                   shards):
    """Whatever the structure, seed, and shard count, stable admission
    keeps the committed execution identical to its serial replay."""
    harness = ThroughputHarness(registry=stable_session.registry)
    run = harness.run_one(structure, SWEEP.with_(seed=seed), workers=1,
                          shards=shards, stable=True)
    assert run.commits == SWEEP.transactions
    assert run.serializable, run.summary()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000))
def test_stable_admission_multi_worker_property(stable_session, seed):
    """Threaded stable admission stays serializable (decisions are
    scheduling-dependent, serializability is not)."""
    harness = ThroughputHarness(registry=stable_session.registry,
                                max_rounds=500_000)
    run = harness.run_one("HashTable", SWEEP.with_(seed=seed),
                          workers=3, shards=4, stable=True)
    assert run.serializable, run.summary()
