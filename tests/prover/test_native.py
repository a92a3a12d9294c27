"""The native backend: unbounded proofs, EUF-certified refutations,
and the bounded-length ArrayList regime."""

from prover_fixture import fragile_condition

from repro.prover import prove_pair
from repro.prover.obligations import (REGIME_BOUNDED_LENGTH,
                                      REGIME_UNBOUNDED)
from repro.stability.compiler import candidate_texts


def _prove(registry, scope, name, m1, m2, texts=None):
    cond = fragile_condition(registry, name, m1, m2)
    if texts is None:
        texts = candidate_texts(cond, True)
    return prove_pair(registry.spec(name), cond, texts, scope)


def _by_text(proof):
    return {r.candidate: r for r in proof.results}


# -- Set: unbounded proofs and refutations ------------------------------------

def test_set_state_free_candidate_proved_unboundedly(registry, scope):
    proof = _prove(registry, scope, "HashSet", "add_", "contains")
    result = _by_text(proof)["v1 ~= v2"]
    assert result.status == "proved"
    assert result.regime == REGIME_UNBOUNDED
    assert result.admitted > 0
    assert result.countermodel is None


def test_set_reanchored_candidate_refuted_with_countermodel(registry,
                                                            scope):
    # The s1 -> s2 re-anchoring of add_;contains is value coincidence
    # all over again: under drift the set may contain v1 without the
    # logged add_ having been the no-op the original condition
    # certified.  The prover must find a concrete countermodel.
    proof = _prove(registry, scope, "HashSet", "add_", "contains")
    result = _by_text(proof)["v1 ~= v2 | s2.contains(v1) = true"]
    assert result.status == "refuted"
    cm = result.countermodel
    assert cm is not None
    assert cm["family"] == "Set"
    assert cm["candidate"] == "v1 ~= v2 | s2.contains(v1) = true"
    # The countermodel carries the refuting case and its EUF
    # consistency certificate (the semantic bindings really are
    # satisfiable — the refutation is not an artifact of token choice).
    for key in ("root", "drift", "args1", "args2", "euf_classes"):
        assert key in cm


def test_accumulator_obligations_discharge(registry, scope):
    from repro.commutativity.conditions import Kind
    conditions = [c for c in registry.conditions("Accumulator")
                  if c.kind is Kind.BETWEEN and c.drift_fragile]
    for cond in conditions:
        proof = prove_pair(registry.spec("Accumulator"), cond,
                           candidate_texts(cond, True), scope)
        # No Accumulator candidate may be refuted: its between catalog
        # has no fragile pair whose weakening lies (PR 5 ground truth).
        assert all(r.status != "refuted" for r in proof.results), \
            f"{cond.m1};{cond.m2}: {[r.status for r in proof.results]}"


# -- ArrayList: the bounded-length regime -------------------------------------

def test_arraylist_observer_pinned_candidate_proved(registry, scope):
    # The bounded sweep passes ``at(upd(s2.elems, i2, v2), i1) = r1``
    # but refuses to arm it (state-reading); the prover's certificate
    # is exactly what lifts the refusal.
    proof = _prove(registry, scope, "ArrayList", "get", "set")
    result = _by_text(proof)["at(upd(s2.elems, i2, v2), i1) = r1"]
    assert result.status == "proved"
    assert result.regime == REGIME_BOUNDED_LENGTH
    assert result.admitted > 0


def test_arraylist_unsound_candidate_refuted(registry, scope):
    # indexOf;set: ``i2 = r1`` (writing at the observed index) does not
    # commute — the countermodel is a genuinely fragile admission.
    proof = _prove(registry, scope, "ArrayList", "indexOf", "set")
    by_text = _by_text(proof)
    assert by_text["i2 = r1"].status == "refuted"
    assert by_text["i2 = r1"].countermodel is not None
    assert by_text["idx(upd(s2.elems, i2, v2), v1) = r1"].status \
        == "proved"


# -- the clean-admission contract ---------------------------------------------

def test_vacuous_candidate_is_not_proved(registry, scope):
    # A candidate that never admits cleanly certifies nothing: the
    # prover must refuse it rather than report an empty proof.
    proof = _prove(registry, scope, "HashSet", "add_", "contains",
                   texts=["v1 = v2 & v1 ~= v2"])
    (result,) = proof.results
    assert result.status == "unsupported"
    assert "vacuous" in result.reason
