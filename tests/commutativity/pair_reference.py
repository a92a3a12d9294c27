"""The bounded checker as it reads in the paper, for the tests that hold
the generated pair loop to it.

:func:`reference` runs ``m1; m2`` for every case, then ``m2; m1``,
compares, and evaluates each condition through the interpreter.
Nothing is looked up, shared or generated, so every result of
:func:`repro.commutativity.bounded.check_conditions` (case counts, and
counterexamples in order) must equal it, and a formula that raises must
raise the same error at the same case.  Test modules import it by this
module's name (never through ``conftest``).
"""

from repro.eval.interpreter import EvalContext, evaluate


def executions(spec, op1, op2, scope):
    """Every first-order execution within ``scope``, every step run, as
    ``(state, args1, args2, mid, fin, r1, r2)``."""
    pre = spec.precondition_holds
    for state in spec.states(scope):
        for args1 in spec.arguments(op1, scope):
            if not pre(op1, state, args1):
                continue
            mid, r1 = op1.semantics(state, args1)
            for args2 in spec.arguments(op2, scope):
                if not pre(op2, mid, args2):
                    continue
                fin, r2 = op2.semantics(mid, args2)
                yield state, args1, args2, mid, fin, r1, r2


def reference(spec, conditions, scope, max_counterexamples=3,
              use_dynamic=False, cases=None):
    """``(cases, counterexamples)`` per condition, over ``cases`` (the
    scope's :func:`executions` by default)."""
    op1, op2 = conditions[0].op1, conditions[0].op2
    ctx = EvalContext(observe=spec.observe)
    pre = spec.precondition_holds
    counts = [0] * len(conditions)
    found = [[] for _ in conditions]
    if cases is None:
        cases = executions(spec, op1, op2, scope)
    for state, args1, args2, mid, fin, r1, r2 in cases:
        truth = False
        if pre(op2, state, args2):
            mid_b, r2_b = op2.semantics(state, args2)
            if pre(op1, mid_b, args1):
                fin_b, r1_b = op1.semantics(mid_b, args1)
                truth = ((op1.result_sort is None or r1 == r1_b)
                         and (op2.result_sort is None or r2 == r2_b)
                         and fin == fin_b)
        env = {"s1": state, "s2": mid, "s3": fin, "r1": r1, "r2": r2}
        env.update((f"{p.name}1", a) for p, a in zip(op1.params, args1))
        env.update((f"{p.name}2", a) for p, a in zip(op2.params, args2))
        for i, cond in enumerate(conditions):
            counts[i] += 1
            formula = cond.dynamic_formula if use_dynamic else cond.formula
            phi = bool(evaluate(formula, env, ctx))
            if phi != truth and len(found[i]) < max_counterexamples:
                found[i].append(("soundness" if phi else "completeness",
                                 state, args1, args2, phi, truth))
    return list(zip(counts, found))


def observed(results):
    """:func:`reference`'s shape of ``check_conditions`` results."""
    return [(r.cases, [(c.direction, c.state, c.args1, c.args2,
                        c.condition_value, c.commuted)
                       for c in r.counterexamples])
            for r in results]


def outcome(thunk):
    """``thunk()``'s value, or the type and message it raised."""
    try:
        return "returned", thunk()
    except Exception as exc:  # compared by the caller, not swallowed
        return "raised", type(exc).__name__, str(exc)
