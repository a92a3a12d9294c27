"""The invariant the compiled tier sells: lowering is an *accelerator*,
not a policy.  Closures are the only admission path, and the
interpreter — the per-check fallback, forced everywhere by the
``interpreted`` fixture — stays the reference: byte-identical decision
digests for every structure (six builtins + the custom Register), flat
and sharded, stable and plain, weakened and proved tiers; and the
EvalError diagnostics carry the pair that failed either way."""

import dataclasses
import inspect

import pytest
from stability_fixture import ALL_STRUCTURES

from repro.api import Session
from repro.eval import Record
from repro.__main__ import main
from repro.runtime import (ConflictManager, LoggedOperation,
                           SpeculativeExecutor)
from repro.runtime.backend import AdmissionBackend, LocalAdmissionBackend
from repro.runtime.executor import ExecutionReport
from repro.service import protocol
from repro.service.client import ServiceBackend
from repro.workloads import ThroughputHarness, WorkloadRun, WorkloadSpec

#: Write-heavy hot-key over a preloaded structure: the shape where the
#: compiled path actually carries traffic (deep logs, many pair checks).
GATE = WorkloadSpec(name="identity-gate", profile="write-heavy",
                    distribution="hot-key", transactions=10,
                    ops_per_transaction=6, key_space=24, value_space=3,
                    preload=16, seed=9)

#: A mixed profile so observer pairs (r1-dependent conditions) run too.
MIX = WorkloadSpec(name="identity-mix", profile="mixed",
                   distribution="hot-key", transactions=8,
                   ops_per_transaction=5, key_space=12, value_space=3,
                   preload=10, seed=2)


def _digest_pair(harness, interpreted, structure, workload, *, shards,
                 stable=False):
    """The same run twice: through the closures (the default) and with
    every check forced through the interpreter."""
    compiled = harness.run_one(structure, workload, workers=1,
                               shards=shards, stable=stable)
    with interpreted():
        reference = harness.run_one(structure, workload, workers=1,
                                    shards=shards, stable=stable)
    assert reference.serializable and compiled.serializable
    assert reference.compiled_hits == 0
    return reference, compiled


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_compiled_decisions_are_byte_identical(runnable_registry,
                                               interpreted, structure,
                                               shards):
    harness = ThroughputHarness(registry=runnable_registry)
    for workload in (GATE, MIX):
        reference, compiled = _digest_pair(harness, interpreted,
                                           structure, workload,
                                           shards=shards)
        assert compiled.compiled_hits > 0, structure
        assert compiled.report.decision_digest() \
            == reference.report.decision_digest(), (
                f"{structure} @ {shards} shards on {workload.name}")


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_compiled_stable_path_identity(stable_session, interpreted,
                                       structure):
    """The stable (drift-guard) tier lowers too, with the same digest
    equality — and without losing a single stable-certified admission
    to the closure path."""
    harness = ThroughputHarness(registry=stable_session.registry)
    reference, compiled = _digest_pair(harness, interpreted, structure,
                                       GATE, shards=4, stable=True)
    assert compiled.report.decision_digest() \
        == reference.report.decision_digest(), structure
    assert compiled.stable_hits == reference.stable_hits
    assert compiled.drift_fallbacks == reference.drift_fallbacks


def test_compiled_flat_equals_sharded(runnable_registry):
    """Orthogonality: with the closures deciding, the sharded manager
    still matches the flat log decision-for-decision, on every
    structure."""
    harness = ThroughputHarness(registry=runnable_registry)
    for structure in ALL_STRUCTURES:
        flat = harness.run_one(structure, GATE, workers=1, shards=1)
        sharded = harness.run_one(structure, GATE, workers=1, shards=4)
        assert flat.report.decision_digest() \
            == sharded.report.decision_digest(), structure


@pytest.mark.parametrize("structure", ("HashSet", "ArrayList"))
def test_threaded_compiled_stays_serializable(runnable_registry,
                                              structure):
    """Decisions are scheduling-dependent at workers=4; the contract
    there is serializability with the closures actually in the loop."""
    harness = ThroughputHarness(registry=runnable_registry,
                                max_rounds=500_000)
    run = harness.run_one(structure, GATE, workers=4, shards=4)
    assert run.serializable, run.summary()
    assert run.compiled_hits > 0


def test_tier_demotion_never_changes_decisions(stable_session):
    """Tier is provenance, not policy: flipping every HashTable stable
    condition's tier re-labels the hit counters (proved_hits vs
    stable_hits) but leaves the decision digest byte-identical, with
    closures armed either way."""
    registry = stable_session.registry
    original = registry.stable_conditions("HashTable")
    harness = ThroughputHarness(registry=registry)
    baseline = harness.run_one("HashTable", GATE, workers=1, shards=4,
                               stable=True)
    assert baseline.stable_hits > 0 and baseline.report.proved_hits == 0
    flipped = [dataclasses.replace(c, tier="proved") for c in original]
    registry.register_stable_conditions("HashTable", flipped,
                                        replace=True)
    try:
        promoted = harness.run_one("HashTable", GATE, workers=1,
                                   shards=4, stable=True)
    finally:
        registry.register_stable_conditions("HashTable", original,
                                            replace=True)
    assert promoted.report.proved_hits == baseline.stable_hits
    assert promoted.stable_hits == 0
    assert promoted.compiled_hits > 0
    assert promoted.report.decision_digest() \
        == baseline.report.decision_digest()


# -- compiled admission is the only path ---------------------------------------

def test_plain_gatekeeper_decides_through_closures():
    """No flag arms the closures: a default-constructed manager already
    decides through them."""
    gk = ConflictManager("HashSet")
    before = Record(contents=frozenset({"a"}), size=1)
    after = Record(contents=frozenset({"a", "b"}), size=2)
    gk.record(LoggedOperation(txn_id=1, op_name="add", args=("b",),
                              result=True, before=before, after=after,
                              undo=(("remove", ("b",)),)))
    assert gk.admits(2, "contains", ("c",), after)
    assert gk.counters()["compiled_hits"] > 0


#: Every callable that used to take the admission-mode option
#: (``compiled``) or the deleted single-lock threaded mode's ``batch``.
OPTION_FREE = (ConflictManager, AdmissionBackend.conflict_manager,
               LocalAdmissionBackend.conflict_manager,
               ServiceBackend.conflict_manager, SpeculativeExecutor,
               ThroughputHarness, ThroughputHarness.run_one,
               Session.run_workload, protocol.open_frame)


@pytest.mark.parametrize("fn", OPTION_FREE,
                         ids=lambda fn: fn.__qualname__)
def test_no_compiled_option_remains(fn):
    assert not {"compiled", "batch"} & set(inspect.signature(fn).parameters)


def test_run_batch_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--name", "HashSet", "--workers", "2",
              "--batch", "2"])
    assert exit_info.value.code == 2
    assert "--batch" in capsys.readouterr().err


def test_reports_carry_no_compiled_field():
    for cls in (ExecutionReport, WorkloadRun):
        names = {f.name for f in dataclasses.fields(cls)}
        assert "compiled" not in names, cls.__name__


# -- EvalError samples name the failing pair, closure or interpreter ----------

def _arraylist_eval_error():
    """The get(0)/set(1, ...) recipe: evaluating ArrayList's between
    condition on this environment indexes out of range, so the check
    resolves conservatively and must leave a usable diagnostic."""
    gk = ConflictManager("ArrayList")
    state = Record(elems=("a",))
    gk.record(LoggedOperation(txn_id=1, op_name="get", args=(0,),
                              result="a", before=state, after=state,
                              undo=()))
    gk.admits(2, "set", (1, "x"), state)
    return gk


@pytest.mark.parametrize("compiled", (False, True))
def test_eval_error_sample_names_the_pair(interpreted, compiled):
    if compiled:
        gk = _arraylist_eval_error()
    else:
        with interpreted():
            gk = _arraylist_eval_error()
    assert gk.counters()["eval_errors"] == 1
    (sample,) = gk.eval_error_samples()
    assert sample["structure"] == "ArrayList"
    assert sample["m1"] == "get" and sample["m2"] == "set"
    assert "IndexError" in sample["error"] or sample["error"]
    assert sample["stable"] is False
    assert sample["condition"]  # the formula text, not a placeholder


def test_eval_error_counts_match_across_modes(interpreted):
    """Interpreter-exact EvalError propagation: a closure trips the
    same errors the interpreter does, no more, no fewer."""
    compiled = _arraylist_eval_error()
    with interpreted():
        reference = _arraylist_eval_error()
    assert compiled.counters()["eval_errors"] \
        == reference.counters()["eval_errors"]
    assert compiled.eval_error_samples() \
        == reference.eval_error_samples()


def test_eval_error_sample_reaches_the_report(runnable_registry):
    """End to end: a run that trips EvalErrors surfaces the bounded
    sample on its ExecutionReport (what the bench artifact uploads)."""
    harness = ThroughputHarness(registry=runnable_registry)
    run = harness.run_one("ArrayList", GATE, workers=1, shards=1)
    if run.eval_errors:
        assert run.report.eval_error_sample
        for entry in run.report.eval_error_sample:
            assert set(entry) == {"structure", "m1", "m2", "condition",
                                  "error", "stable"}
