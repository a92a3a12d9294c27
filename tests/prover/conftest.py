"""Shared fixtures for the symbolic-prover tests."""

import pytest

from repro.api import Registry
from repro.eval import Scope


@pytest.fixture(scope="session")
def registry() -> Registry:
    return Registry.with_builtins()


@pytest.fixture(scope="session")
def scope() -> Scope:
    """The full paper scope: the prover's drift enumeration is symbolic
    over values, so it stays fast even here."""
    return Scope()
