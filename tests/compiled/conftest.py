"""Shared fixtures for the compiled-admission tests: the runnable
builtins + custom Register registry, one session with compiled
drift-stable conditions (compiling the catalog once is the expensive
part, so it is module-scoped), and the interpreter as the reference
every compiled decision is compared against."""

import sys
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "api"))
sys.path.insert(0,
                str(Path(__file__).resolve().parent.parent / "stability"))

from stability_fixture import make_runnable_register_registry  # noqa: E402

from repro.api import Session  # noqa: E402
from repro.compiled import admission, cache  # noqa: E402
from repro.eval import Scope  # noqa: E402


@pytest.fixture(scope="module")
def runnable_registry():
    return make_runnable_register_registry()


@pytest.fixture(scope="module")
def stable_session():
    """A session whose registry carries compiled drift-stable
    conditions for every structure (builtins + Register)."""
    session = Session(registry=make_runnable_register_registry(),
                      scope=Scope(), cache=False)
    session.compile_stable()
    return session


def _no_closure(spec, spec_fp, cond, label, ctx):
    return None


@pytest.fixture
def interpreted():
    """A context manager under which every admission check is decided
    by the interpreter: managers built inside the ``with`` block arm
    plans whose closures are hidden, as if the lowerer had refused
    every pair, so each check takes the per-check fallback to
    ``evaluate`` (constant pairs included: a plan without a closure
    never admits straight from the plan).  The block arms into its own
    empty map, so it neither reuses nor leaves behind a shared arming;
    runs outside it use the closures as usual."""
    @contextmanager
    def patched():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(admission, "compiled_pair", _no_closure)
            patch.setattr(cache, "_ARMINGS", weakref.WeakKeyDictionary())
            yield
    return patched
