"""Backend packaging: fingerprints, payload round-trips, proof
merging, and the cache-key sensitivity the satellites demand."""

from prover_fixture import fragile_condition

from repro.engine import TaskPlanner
from repro.engine.fingerprint import (stability_fingerprint,
                                      symbolic_stability_fingerprint)
from repro.eval import Scope
from repro.prover import (discharge_pair, proof_from_payload,
                          proof_payload, prover_fingerprint)
from repro.stability.compiler import candidate_texts, merge_proofs
from repro.stability.quantified import check_pair


def test_prover_fingerprint_shape():
    fp = prover_fingerprint()
    assert fp["backend"] == "native-euf"
    assert isinstance(fp["prover_version"], int)
    assert isinstance(fp["external"]["z3"], bool)


def test_symbolic_fingerprint_extends_bounded(registry):
    from repro.commutativity.conditions import Kind
    conditions = [c for c in registry.conditions("HashSet")
                  if c.kind is Kind.BETWEEN and c.drift_fragile][:2]
    bounded = stability_fingerprint(conditions, True)
    symbolic = symbolic_stability_fingerprint(conditions, True)
    assert "prover" not in bounded
    assert symbolic["prover"] == prover_fingerprint()
    assert {k: v for k, v in symbolic.items() if k != "prover"} \
        == bounded


def test_prover_version_changes_task_key(registry, monkeypatch):
    scope = Scope(objects=("a", "b"))
    planner = TaskPlanner(registry)
    before = [t.key for t in
              planner.plan_symbolic_stability(("HashSet",), scope).tasks]
    monkeypatch.setattr("repro.prover.backend.PROVER_VERSION", 999)
    after = [t.key for t in
             planner.plan_symbolic_stability(("HashSet",), scope).tasks]
    assert before != after


def test_z3_availability_changes_task_key(registry, monkeypatch):
    # Installing z3 must retire cached proofs (their corroboration
    # field changes), never serve stale .repro-cache entries.
    import repro.prover.backend as backend
    scope = Scope(objects=("a", "b"))
    planner = TaskPlanner(registry)
    monkeypatch.setattr(backend, "z3_available", lambda: False)
    without = [t.key for t in
               planner.plan_symbolic_stability(("HashSet",), scope).tasks]
    monkeypatch.setattr(backend, "z3_available", lambda: True)
    with_z3 = [t.key for t in
               planner.plan_symbolic_stability(("HashSet",), scope).tasks]
    assert without != with_z3


def test_bounded_and_symbolic_task_keys_differ(registry):
    scope = Scope(objects=("a", "b"))
    planner = TaskPlanner(registry)
    bounded = {t.key for t in
               planner.plan_stability(("HashSet",), scope).tasks}
    symbolic = {t.key for t in
                planner.plan_symbolic_stability(("HashSet",),
                                                scope).tasks}
    assert not (bounded & symbolic)


def test_proof_payload_round_trip(registry, scope):
    cond = fragile_condition(registry, "HashSet", "add_", "contains")
    proof = discharge_pair(registry.spec("HashSet"), cond,
                           candidate_texts(cond, True), scope)
    rebuilt = proof_from_payload(proof_payload(proof),
                                 elapsed=proof.elapsed)
    assert rebuilt.m1 == proof.m1 and rebuilt.m2 == proof.m2
    assert rebuilt.cases == proof.cases
    assert [(r.candidate, r.status, r.admitted, r.regime, r.reason,
             r.countermodel, r.corroboration) for r in rebuilt.results] \
        == [(r.candidate, r.status, r.admitted, r.regime, r.reason,
             r.countermodel, r.corroboration) for r in proof.results]


# -- merge_proofs: proofs into bounded verdicts -------------------------------

def _merged(registry, scope, name, m1, m2):
    cond = fragile_condition(registry, name, m1, m2)
    spec = registry.spec(name)
    texts = candidate_texts(cond, True)
    pair = check_pair(spec, cond, texts, scope)
    proof = discharge_pair(spec, cond, texts, scope)
    return pair, merge_proofs(pair, proof)


def test_proved_pair_promotes_and_keeps_stable_text(registry, scope):
    pair, merged = _merged(registry, scope, "HashSet", "add_",
                           "contains")
    assert pair.verdict == "weakened"
    assert merged.verdict == "proved"
    # The refuted re-anchoring was never armed; the armed state-free
    # survivor is now proved, so the compiled text is unchanged.
    assert merged.stable_text == pair.stable_text
    by_text = {c.text: c for c in merged.candidates}
    assert by_text["v1 ~= v2"].proved
    assert by_text["v1 ~= v2 | s2.contains(v1) = true"].countermodel \
        is not None


def test_proved_state_reader_is_newly_armed(registry, scope):
    # The acceptance property: the bounded sweep passes the
    # observer-pinned ArrayList candidates but refuses to arm them;
    # the symbolic proof is what finally sets armed=True.
    pair, merged = _merged(registry, scope, "ArrayList", "get", "set")
    text = "at(upd(s2.elems, i2, v2), i1) = r1"
    before = {c.text: c for c in pair.candidates}[text]
    after = {c.text: c for c in merged.candidates}[text]
    assert before.passed and not before.armed
    assert after.armed and after.proved
    assert text in merged.stable_text
    assert merged.verdict == "proved"


def test_unproved_armed_candidate_keeps_weakened_verdict(registry,
                                                         scope):
    cond = fragile_condition(registry, "HashSet", "add_", "contains")
    spec = registry.spec("HashSet")
    texts = candidate_texts(cond, True)
    pair = check_pair(spec, cond, texts, scope)
    from repro.prover.native import PairProof
    empty = PairProof(m1=cond.m1, m2=cond.m2, results=(), cases=0,
                      elapsed=0.0)
    merged = merge_proofs(pair, empty)
    # No proof discharged: armed candidates survive but the pair
    # cannot claim the proved tier.
    assert merged.verdict == "weakened"
    assert merged.stable_text == pair.stable_text
