"""The CEGIS abduction loop: atom alphabet, lattice walk, payload
round-trips, engine caching of ABDUCTION tasks, and the synthesized
tier's runtime admission path — all on the projector-less RegisterCell
demo, the structure no earlier machinery helps."""

import pytest

from repro.abduction import (ABDUCTION_VERSION, DEMO_FAMILY, atom_pool,
                             make_demo_registry, register_demo_structure,
                             synthesis_from_payload, synthesis_payload,
                             synthesize_pair)
from repro.abduction.loop import MAX_CHECKED, MAX_WIDTH
from repro.api import Registry, Session
from repro.commutativity import Kind
from repro.engine import ResultCache, run_stability_compilation
from repro.engine.tasks import ABDUCTION
from repro.eval import Scope
from repro.stability import merge_synthesis
from repro.workloads import ThroughputHarness, WorkloadSpec

SCOPE = Scope()


@pytest.fixture()
def registry() -> Registry:
    return make_demo_registry()


def _cond(registry, m1, m2):
    return registry.condition(DEMO_FAMILY, m1, m2, Kind.BETWEEN)


# -- atom alphabet ------------------------------------------------------------

def test_atom_pool_covers_the_between_vocabulary(registry):
    spec = registry.spec(DEMO_FAMILY)
    write = spec.operations["write"]
    atoms = atom_pool(write, write)
    # Argument equality plus both observed-result links: the alphabet
    # the write;write synthesis is built from.
    assert {"v1 = v2", "v1 = r1", "v2 = r1"} <= set(atoms)
    # State-free by construction — drift cannot falsify an atom.
    assert not any("s1" in a or "s2" in a for a in atoms)
    assert len(atoms) == len(set(atoms))


def test_atom_pool_of_argless_pair_is_empty(registry):
    spec = registry.spec(DEMO_FAMILY)
    read = spec.operations["read"]
    assert atom_pool(read, read) == []


# -- the lattice walk ---------------------------------------------------------

def test_synthesize_pair_arms_abduced_conditions(registry):
    synth = synthesize_pair(registry.spec(DEMO_FAMILY),
                            _cond(registry, "write", "write"), SCOPE)
    assert synth.pair_label == "write;write"
    assert len(synth.armed) >= 1
    assert 0 < synth.checked <= MAX_CHECKED
    assert synth.rounds >= 1
    assert synth.cases > 0
    for c in synth.conditions:
        assert c.origin == "abduced"
        assert "s1" not in c.text and "s2" not in c.text
        # Conjunction width is bounded by the walk.
        assert c.text.count("&") < MAX_WIDTH
    for c in synth.armed:
        assert c.passed
    assert synth.stats() == {"checked": synth.checked,
                             "pruned": synth.pruned,
                             "refuted": synth.refuted,
                             "rounds": synth.rounds,
                             "armed": len(synth.armed)}


def test_countermodels_prune_the_frontier(registry):
    """write;write refutes the bare atoms before strengthening; at
    least one strengthened candidate must be killed by the recorded
    violating observations without a fresh sweep."""
    synth = synthesize_pair(registry.spec(DEMO_FAMILY),
                            _cond(registry, "write", "write"), SCOPE)
    assert synth.pruned >= 1


def test_synthesis_payload_roundtrip(registry):
    synth = synthesize_pair(registry.spec(DEMO_FAMILY),
                            _cond(registry, "write", "read"), SCOPE)
    rebuilt = synthesis_from_payload(synthesis_payload(synth))
    assert rebuilt.conditions == synth.conditions
    assert rebuilt.stats() == synth.stats()
    assert rebuilt.cases == synth.cases


def test_merge_synthesis_promotes_and_dedupes(registry):
    session = Session(registry=registry, cache=False)
    report = session.compile_stable([DEMO_FAMILY])[DEMO_FAMILY]
    fragile = {p.pair_label: p for p in report.pairs}["write;write"]
    assert fragile.verdict == "fragile"  # nothing pre-abduction helps
    synth = synthesize_pair(registry.spec(DEMO_FAMILY),
                            _cond(registry, "write", "write"), SCOPE)
    merged = merge_synthesis(fragile, synth)
    assert merged.verdict == "synthesized"
    assert merged.stable_text is not None
    # Merging the same synthesis again adds nothing: every text is
    # already known, so the pool must not grow.
    again = merge_synthesis(merged, synth)
    assert again.candidates == merged.candidates
    assert again.stable_text == merged.stable_text


def test_abduction_version_gates_the_task_key(registry):
    """The version is baked into every ABDUCTION task key; a walk or
    alphabet change must bump it to retire cached syntheses."""
    from repro.engine.fingerprint import abduction_fingerprint
    assert ABDUCTION_VERSION == 1
    conditions = [c for c in registry.conditions(DEMO_FAMILY)
                  if c.kind is Kind.BETWEEN]
    fingerprint = abduction_fingerprint(conditions, has_router=False)
    assert fingerprint["abduction_version"] == ABDUCTION_VERSION
    # The bounded layers ride along: a compiler or prover bump retires
    # cached syntheses too.
    assert "compiler_version" in fingerprint
    assert "prover" in fingerprint


# -- engine integration: cached ABDUCTION tasks -------------------------------

def test_abduction_tasks_are_served_from_cache(tmp_path, registry):
    cache = ResultCache(tmp_path / "cache")
    cold = run_stability_compilation(SCOPE, names=[DEMO_FAMILY],
                                     registry=registry, cache=cache,
                                     prover=True, abduce=True)
    warm = run_stability_compilation(SCOPE, names=[DEMO_FAMILY],
                                     registry=make_demo_registry(),
                                     cache=cache, prover=True,
                                     abduce=True)
    for report in (cold[DEMO_FAMILY], warm[DEMO_FAMILY]):
        assert report.synthesized_count > 0
        assert any(t.kind == ABDUCTION for t in report.task_timings)
    assert not any(t.cached
                   for t in cold[DEMO_FAMILY].task_timings)
    assert all(t.cached for t in warm[DEMO_FAMILY].task_timings)
    # Warm syntheses are byte-identical to the cold run's.
    assert [(p.m1, p.m2, p.verdict, p.stable_text, p.candidates,
             p.synthesis) for p in warm[DEMO_FAMILY].pairs] \
        == [(p.m1, p.m2, p.verdict, p.stable_text, p.candidates,
             p.synthesis) for p in cold[DEMO_FAMILY].pairs]


# -- runtime: the synthesized tier admits, the tier never decides -------------

HOT_WRITES = WorkloadSpec(
    name="abduction-hotkey", profile="write-heavy",
    distribution="hot-key", transactions=12, ops_per_transaction=6,
    key_space=24, value_space=3, seed=9)


def test_register_demo_structure_is_idempotent_and_runnable(registry):
    assert DEMO_FAMILY in registry.names()
    assert registry.implementation(DEMO_FAMILY) is not None
    report = Session(registry=registry, cache=False).verify(
        DEMO_FAMILY, backend="bounded")
    assert report.all_verified


def test_synthesized_guard_admits_where_the_fallback_cannot(registry):
    session = Session(registry=registry, cache=False)
    session.abduce_stable([DEMO_FAMILY])
    harness = ThroughputHarness(registry=registry)
    plain = harness.run_one(DEMO_FAMILY, HOT_WRITES, workers=1)
    armed = harness.run_one(DEMO_FAMILY, HOT_WRITES, workers=1,
                            stable=True)
    assert plain.serializable and armed.serializable
    # No router: the conservative oracle admits nothing under drift,
    # and without abduction there is no semantic tier at all.
    assert plain.report.fallback_admits == 0
    assert plain.report.synthesized_hits == 0
    # The abduced conditions admit through the synthesized tier, and
    # only through it — stable/proved counters stay untouched.
    assert armed.report.synthesized_hits > 0
    assert armed.report.stable_hits == 0
    assert armed.report.proved_hits == 0
    assert armed.drift_fallbacks < plain.drift_fallbacks


def test_flat_and_sharded_synthesized_decisions_agree(registry):
    session = Session(registry=registry, cache=False)
    session.abduce_stable([DEMO_FAMILY])
    flat = session.run_workload(DEMO_FAMILY, HOT_WRITES, shards=1,
                                stable=True)
    sharded = session.run_workload(DEMO_FAMILY, HOT_WRITES, shards=4,
                                   stable=True)
    assert flat.commit_order == sharded.commit_order
    assert flat.aborts == sharded.aborts


def test_register_demo_structure_reuses_existing_registration():
    registry = Registry.with_builtins()
    first = register_demo_structure(registry)
    second = register_demo_structure(registry)
    assert first == second == DEMO_FAMILY
    assert registry.names().count(DEMO_FAMILY) == 1
