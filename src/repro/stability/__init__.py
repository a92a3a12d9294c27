"""Drift-stable condition compilation for semantic admission under
state drift.

PR 4's drift guard made the gatekeeper sound but conservative: between
conditions that mention abstract state are refused once the verified
environment is gone, and hot-key Set/Map pairs and preloaded ArrayList
index pairs fall back to the shard-router oracle exactly where
contention is highest.  This package compiles each verified between
condition — once, offline, through the :mod:`repro.engine`
planner/cache — into a drift-stability verdict and, where possible, a
drift-stable weakening the runtime can evaluate in *any* environment:

- :mod:`.projector` classifies condition atoms as arg/result-only vs
  state-referencing and extracts the arg/result-only weakening;
- :mod:`.footprint` derives candidate atoms from the state projection
  both operations touch, reusing the shard routers' region logic;
- :mod:`.quantified` re-verifies every candidate with ``s2`` quantified
  over all in-scope intermediate states;
- :mod:`.compiler` / :mod:`.report` package the verdicts into
  registrable :class:`StableCondition` artifacts.

Consumption: :meth:`repro.api.Session.compile_stable` registers the
artifacts via :meth:`repro.api.Registry.register_stable_conditions`;
a :class:`~repro.runtime.gatekeeper.ConflictManager` constructed with
``stable=True`` tries the compiled condition on the drift path before
falling back to the router oracle.
"""

from .compiler import (STABILITY_COMPILER_VERSION, StableCondition,
                       candidate_texts, compile_group, compile_pair,
                       merge_proofs, merge_synthesis)
from .footprint import footprint_candidates
from .projector import state_free_projection, top_level_disjuncts
from .quantified import CandidateResult, PairStability, check_pair
from .report import StabilityReport

__all__ = [
    "STABILITY_COMPILER_VERSION", "StableCondition", "candidate_texts",
    "compile_group", "compile_pair",
    "merge_proofs", "merge_synthesis",
    "footprint_candidates",
    "state_free_projection", "top_level_disjuncts",
    "CandidateResult", "PairStability", "check_pair",
    "StabilityReport",
]
