"""The symbolic backend's checks against the plain reference loop.

:func:`check_conditions_symbolic` runs the bounded checker's generated
pair body under a flat loop over the executed symbolic cases.  Over the
same cases, :func:`pair_reference.reference` runs the reverse order
with the operations' semantics and evaluates every condition through
the interpreter; the results (case counts, and counterexamples in
order) must be equal, for every pair of every symbolic family, for the
catalog's conditions and for two wrong ones per pair.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "commutativity"))

from pair_reference import observed, reference  # noqa: E402

from repro.api import DEFAULT_REGISTRY  # noqa: E402
from repro.commutativity import CommutativityCondition, Kind  # noqa: E402
from repro.commutativity.bounded import executions  # noqa: E402
from repro.eval import paper_scope  # noqa: E402
from repro.solver.engine import (_family_cases,  # noqa: E402
                                 check_conditions_symbolic)

SCOPE = paper_scope(max_seq_len=2)
#: One structure per symbolic family.
STRUCTURES = ("HashSet", "HashTable", "Accumulator", "ArrayList")


@pytest.mark.parametrize("name", STRUCTURES)
def test_symbolic_checks_like_the_reference_loop(name):
    spec = DEFAULT_REGISTRY.spec(name)
    pairs: dict = {}
    for cond in DEFAULT_REGISTRY.conditions(name):
        pairs.setdefault((cond.m1, cond.m2), []).append(cond)
    for (m1, m2), conditions in pairs.items():
        conditions = conditions + [CommutativityCondition(
            family=spec.name, m1=m1, m2=m2, kind=Kind.AFTER, text=text,
            spec=spec) for text in ("true", "false")]
        op1, op2 = spec.operations[m1], spec.operations[m2]
        cases = list(executions(spec, op1, op2,
                                _family_cases(spec, SCOPE)(op1, op2)))
        got = observed(check_conditions_symbolic(spec, conditions, SCOPE))
        assert got == reference(spec, conditions, SCOPE, cases=cases), \
            f"{name} {m1};{m2}"
        # The catalog's conditions verify; ``true`` and ``false`` fail
        # wherever the pair does not always, or never, commute.
        assert all(not found for _, found in got[:-2])
        assert got[-1][1] or got[-2][1]
