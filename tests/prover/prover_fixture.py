"""The symbolic-prover tests' helper, in a module of its own: test
modules import it by this unique name, never from ``conftest``, which
names a different module in every test directory."""

from repro.commutativity.conditions import Kind


def fragile_condition(registry, name, m1, m2):
    """The drift-fragile between condition of one operation pair."""
    return next(c for c in registry.conditions(name)
                if c.kind is Kind.BETWEEN and (c.m1, c.m2) == (m1, m2)
                and c.drift_fragile)
