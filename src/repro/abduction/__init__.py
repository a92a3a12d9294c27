"""Counterexample-guided synthesis of stable admission conditions.

PRs 5–7 compile, prove, and closure-compile *existing* condition
weakenings: the projector extracts what the catalog author wrote, the
footprint analyzer what a registered shard router licenses.  Pairs
where neither finds anything — and every user-registered custom
structure with no router and no projector hit — still fall back to the
conservative oracle under drift.  This package closes the loop with
the abduction move (à la the source paper's automated error
correction: propose the missing premise, refute, strengthen, repeat):

- :mod:`.atoms` — the lattice alphabet: argument (dis)equalities,
  index-order relations, and observed-``r1`` links, generated for any
  structure, router or not;
- :mod:`.loop` — the CEGIS walk: weakest-first conjunction frontier,
  one bounded quantified sweep per round, violating observations
  pruning and strengthening the lattice, the symbolic prover screening
  every bounded-armed survivor (its countermodels strengthen too);
- :mod:`.demo` — the projector-less, router-less showcase structure
  the gate table, the tests, and the example share.

Results run through the engine as the cached ``ABDUCTION`` task kind
and merge into each pair's verdict
(:func:`repro.stability.compiler.merge_synthesis`) as the
``synthesized`` tier: decision-visible (the gatekeeper counts
``synthesized_hits``), never decision-changing (a synthesized
condition admits exactly like any other armed condition — flat and
sharded managers, local and served deployments, still agree
byte-for-byte).  Entry points: :meth:`repro.api.Session.abduce_stable`
and ``stability --arm synthesized``; row 3 of ``tests/test_gates.py``
(synthesized beats proved) is its gate.
"""

from .atoms import atom_pool
from .demo import (DEMO_FAMILY, make_demo_registry,
                   register_demo_structure)
from .loop import (ABDUCTION_VERSION, PairSynthesis,
                   synthesis_from_payload, synthesis_payload,
                   synthesize_pair)

__all__ = [
    "atom_pool",
    "DEMO_FAMILY", "make_demo_registry", "register_demo_structure",
    "ABDUCTION_VERSION", "PairSynthesis", "synthesis_from_payload",
    "synthesis_payload", "synthesize_pair",
]
