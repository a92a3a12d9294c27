"""Lowering: candidate texts -> classified proof obligations."""

from prover_fixture import fragile_condition

from repro.prover import lower_pair
from repro.prover.obligations import (REGIME_BOUNDED_LENGTH,
                                      REGIME_UNBOUNDED, family_regime)


def test_state_free_candidate_is_supported(registry):
    cond = fragile_condition(registry, "HashSet", "add_", "contains")
    spec = registry.spec("HashSet")
    (ob,) = lower_pair(spec, cond, ["v1 ~= v2"])
    assert ob.supported and ob.state_free and not ob.wants_s2
    assert ob.reason is None


def test_s2_reading_candidate_is_supported(registry):
    cond = fragile_condition(registry, "HashSet", "add_", "contains")
    spec = registry.spec("HashSet")
    (ob,) = lower_pair(spec, cond, ["s2.contains(v1) = true"])
    assert ob.supported and ob.wants_s2 and not ob.state_free


def test_s1_reading_candidate_is_unsupported(registry):
    cond = fragile_condition(registry, "HashSet", "add_", "contains")
    spec = registry.spec("HashSet")
    (ob,) = lower_pair(spec, cond, ["s1.contains(v1) = true"])
    assert not ob.supported
    assert "s1" in ob.reason


def test_int_state_observation_unsupported_for_symbolic_family(registry):
    # Set sizes are opaque N + delta symbols: comparing them is not
    # point-wise decidable, so the prover refuses rather than guesses.
    cond = fragile_condition(registry, "HashSet", "add_", "size")
    spec = registry.spec("HashSet")
    obligations = lower_pair(spec, cond, ["s2.size() = 0"])
    assert obligations and not obligations[0].supported
    assert "integer state observation" in obligations[0].reason


def test_malformed_candidates_are_dropped(registry):
    cond = fragile_condition(registry, "HashSet", "add_", "contains")
    spec = registry.spec("HashSet")
    obligations = lower_pair(
        spec, cond, ["v1 ~= v2", "((", "no_such_var = true", "v1 ~= v2"])
    # One survivor: the parse failure and the out-of-vocabulary
    # candidate are silently dropped, the duplicate deduplicated —
    # mirroring the bounded sweep's intake.
    assert [ob.text for ob in obligations] == ["v1 ~= v2"]


def test_family_regimes():
    assert family_regime("Set") == REGIME_UNBOUNDED
    assert family_regime("Map") == REGIME_UNBOUNDED
    assert family_regime("Accumulator") == REGIME_UNBOUNDED
    assert family_regime("ArrayList") == REGIME_BOUNDED_LENGTH
