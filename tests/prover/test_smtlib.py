"""The SMT-LIB2 emitter and the optional z3 adapter.

Emitter-structure tests run everywhere; the round-trip tests are
skip-marked on :func:`repro.prover.z3_available` and exercised by the
CI matrix leg that installs ``z3-solver``.
"""

import pytest

from prover_fixture import fragile_condition

from repro.prover import (check_smtlib, emit_obligation, lower_pair,
                          prove_pair, z3_available)
from repro.stability.compiler import candidate_texts


def _obligation_script(registry, name, m1, m2, text):
    cond = fragile_condition(registry, name, m1, m2)
    spec = registry.spec(name)
    (ob,) = lower_pair(spec, cond, [text])
    return emit_obligation(spec, cond, ob.term)


def test_set_script_structure(registry):
    script = _obligation_script(registry, "HashSet", "add_", "contains",
                                "v1 ~= v2")
    assert script is not None
    assert "(set-logic QF_UFLIA)" in script
    assert "(declare-sort Obj 0)" in script
    assert "(check-sat)" in script
    # The obligation is satisfiability of C(d) and NOT commutes: unsat
    # corroborates the native proof.
    assert "(assert (not " in script


def test_map_script_structure(registry):
    script = _obligation_script(registry, "HashTable", "put_", "get",
                                "k1 ~= k2")
    assert script is not None
    assert "hasd" in script and "bindd" in script


def test_arraylist_is_inexpressible(registry):
    # The emitter fragment covers Set/Map point-update reasoning only;
    # sequence index arithmetic stays with the native backend.
    script = _obligation_script(registry, "ArrayList", "get", "set",
                                "i1 ~= i2")
    assert script is None


def test_check_smtlib_unavailable_degrades(monkeypatch):
    import repro.prover.z3adapter as z3adapter
    monkeypatch.setattr(z3adapter, "_z3_binary", lambda: None)
    monkeypatch.setattr(z3adapter, "_z3_module_present", lambda: False)
    assert z3adapter.check_smtlib("(check-sat)") == "unavailable"


@pytest.mark.skipif(not z3_available(), reason="z3 not installed")
def test_z3_corroborates_proved_set_candidate(registry, scope):
    cond = fragile_condition(registry, "HashSet", "add_", "contains")
    spec = registry.spec("HashSet")
    (ob,) = lower_pair(spec, cond, ["v1 ~= v2"])
    script = emit_obligation(spec, cond, ob.term)
    assert check_smtlib(script) == "unsat"


@pytest.mark.skipif(not z3_available(), reason="z3 not installed")
def test_z3_corroborates_refuted_set_candidate(registry, scope):
    cond = fragile_condition(registry, "HashSet", "add_", "contains")
    spec = registry.spec("HashSet")
    text = "v1 ~= v2 | s2.contains(v1) = true"
    (ob,) = lower_pair(spec, cond, [text])
    script = emit_obligation(spec, cond, ob.term)
    assert check_smtlib(script) == "sat"


@pytest.mark.skipif(not z3_available(), reason="z3 not installed")
def test_z3_agrees_with_native_on_expressible_set_map_pairs(registry,
                                                            scope):
    from repro.commutativity.conditions import Kind
    for name in ("HashSet", "HashTable"):
        spec = registry.spec(name)
        conditions = [c for c in registry.conditions(name)
                      if c.kind is Kind.BETWEEN and c.drift_fragile]
        for cond in conditions:
            texts = candidate_texts(cond, True)
            proof = prove_pair(spec, cond, texts, scope)
            terms = {o.text: o.term
                     for o in lower_pair(spec, cond, texts)}
            for result in proof.results:
                if result.status not in ("proved", "refuted"):
                    continue
                term = terms.get(result.candidate)
                script = (emit_obligation(spec, cond, term)
                          if term is not None else None)
                if script is None:
                    continue
                expected = ("unsat" if result.status == "proved"
                            else "sat")
                assert check_smtlib(script) == expected, \
                    f"{cond.m1};{cond.m2}: {result.candidate}"
