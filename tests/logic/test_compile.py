"""Differential tests: compiled formulas agree with the interpreter on
every node type and over whole condition catalogs, in every slot layout
the offline callers use."""

import itertools
from functools import partial

import pytest

from repro.abduction.atoms import atom_pool
from repro.commutativity import all_conditions
from repro.commutativity.bounded import (case_layout, case_slots,
                                         enumerate_cases)
from repro.commutativity.conditions import condition_symbols, pair_layout
from repro.eval import EvalContext, EvalError, FMap, Record, Scope, evaluate
from repro.logic import parse_formula, parse_term
from repro.logic.compile import compile_term
from repro.logic.sorts import Sort
from repro.logic.symbols import SymbolTable
from repro.specs import get_spec
from repro.stability.compiler import candidate_texts

TABLE = SymbolTable(
    vars={"p": Sort.BOOL, "x": Sort.INT, "y": Sort.INT,
          "v": Sort.OBJ, "u": Sort.OBJ, "S": Sort.SET, "m": Sort.MAP,
          "s": Sort.SEQ, "st": Sort.STATE},
    state_fields={"contents": Sort.SET, "size": Sort.INT},
    observers={"contains": ((Sort.OBJ,), Sort.BOOL)},
    principal_field="contents",
)

ENV = {
    "p": True, "x": 1, "y": 3, "v": "a", "u": "b",
    "S": frozenset({"a"}), "m": FMap({"a": "b"}), "s": ("a", "b"),
    "st": Record(contents=frozenset({"a"}), size=1),
}

EXPRESSIONS = [
    "p & x < y | ~p",
    "x + y - 1",
    "-x",
    "v : S Un {u}",
    "card(S - {v})",
    "lookup(m, v)",
    "haskey(m, u)",
    "mput(m, u, v)",
    "mdel(m, v)",
    "keys(m)",
    "msize(m)",
    "len(s) + idx(s, u) + lidx(s, v)",
    "at(ins(s, 0, u), 1)",
    "del_(s, 1)",
    "upd(s, 0, u)",
    "has(s, v)",
    "st.size",
    "v : st",
    "EX i. 0 <= i & i < len(s) & at(s, i) = u",
    "ALL i. (0 <= i & i < len(s)) --> has(s, at(s, i))",
    "EX o::obj. o : S",
    "p <-> x = 1",
    "x < y --> p",
]


def _compiled(text, ctx=None):
    """Compile over the layout ``ENV``'s names, applied to its values."""
    term = parse_term(text, TABLE)
    return term, partial(compile_term(term, list(ENV), ctx),
                         list(ENV.values()))


def _outcome(thunk):
    """(value, error message): exactly one side is meaningful."""
    try:
        return thunk(), None
    except EvalError as exc:
        return None, str(exc)


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_compiled_matches_interpreter(text):
    term, compiled = _compiled(text)
    assert compiled() == evaluate(term, ENV)


def test_compiled_observer_dispatch():
    spec = get_spec("Set")
    ctx = EvalContext(observe=spec.observe)
    _, compiled = _compiled("st.contains(v)", ctx)
    assert compiled() is True


def test_compiled_partiality_matches():
    term, compiled = _compiled("at(s, 9)")
    assert _outcome(compiled) == _outcome(lambda: evaluate(term, ENV))
    assert _outcome(compiled)[1] == "sequence index 9 out of range 0..1"


def test_compiled_unbound_variable():
    term = parse_term("x + 1", TABLE)
    with pytest.raises(EvalError, match="unbound variable 'x'"):
        compile_term(term, [])([])


# -- the offline layouts -----------------------------------------------------
#
# Each yields ``(term, env, thunk)``: the interpreter's dict environment
# and the compiled evaluation over the caller's slot list.

SCOPE = Scope(objects=("a", "b"), values=("x", "y"), max_seq_len=2)

#: Cases per condition for the layouts that also rebind ``s2``.
CASES_PER_PAIR = 40


def _bounded(spec, ctx, conditions):
    """The bounded verifier: every binding of a case, ``s3``/``r2``
    included."""
    for cond in conditions[::3]:  # one kind per pair
        names = case_layout(cond.op1, cond.op2)
        fns = [(term, compile_term(term, names, ctx))
               for term in {cond.formula, cond.dynamic_formula}]
        for case in enumerate_cases(spec, cond.op1, cond.op2, SCOPE):
            values = case_slots(cond.op1, cond.op2, case)
            for term, fn in fns:
                yield term, dict(zip(names, values)), partial(fn, values)


def _drifted(spec, ctx, conditions, states):
    """A between condition and its drift-stability candidates, with
    ``s2`` rebound to every in-scope state: the re-verifier binds
    ``s1`` and ``s2``, the prover only ``s2``."""
    drifts = list(spec.states(SCOPE))
    for cond in conditions[1::3]:  # the between conditions
        op1, op2 = cond.op1, cond.op2
        names = pair_layout(op1, op2, *states)
        table = condition_symbols(spec, op1, op2)
        terms = [cond.formula, *(parse_formula(text, table)
                                 for text in candidate_texts(cond, True))]
        fns = [(term, compile_term(term, names, ctx)) for term in terms]
        for case in itertools.islice(
                enumerate_cases(spec, op1, op2, SCOPE), CASES_PER_PAIR):
            for s2 in (case.mid, *drifts):
                values = [case.state, s2][-len(states):]
                values += [*case.args1, *case.args2]
                if op1.result_sort is not None:
                    values.append(case.r1)
                for term, fn in fns:
                    yield term, dict(zip(names, values)), partial(fn, values)


def _abduction(spec, ctx, conditions):
    """The abduction loop: the pair's state-free atoms over the
    observation ``(args1, args2, r1)``."""
    for cond in conditions[1::3]:
        op1, op2 = cond.op1, cond.op2
        names = pair_layout(op1, op2)
        table = condition_symbols(spec, op1, op2)
        atoms = [parse_formula(atom, table) for atom in atom_pool(op1, op2)]
        fns = [compile_term(atom, names, ctx) for atom in atoms]
        for case in itertools.islice(
                enumerate_cases(spec, op1, op2, SCOPE), CASES_PER_PAIR):
            values = [*case.args1, *case.args2]
            if op1.result_sort is not None:
                values.append(case.r1)
            for atom, fn in zip(atoms, fns):
                yield atom, dict(zip(names, values)), partial(fn, values)


def _precondition(spec, ctx, conditions):
    """Operation preconditions over ``s`` and the parameters; a call
    short of an argument takes the interpreted path."""
    for op in spec.operations.values():
        names = ("s", *(param.name for param in op.params))
        fn = compile_term(op.precondition, names, ctx)
        for state in spec.states(SCOPE):
            for args in spec.arguments(op, SCOPE):
                yield (op.precondition, dict(zip(names, (state, *args))),
                       partial(fn, [state, *args]))
                if args:
                    yield (op.precondition,
                           dict(zip(names, (state, *args[:-1]))),
                           partial(spec.precondition_holds, op, state,
                                   args[:-1]))


LAYOUTS = {
    "bounded": _bounded,
    "reverify": partial(_drifted, states=("s1", "s2")),
    "prover": partial(_drifted, states=("s2",)),
    "abduction": _abduction,
    "precondition": _precondition,
}

FAMILIES = ("Accumulator", "Set", "Map", "ArrayList")


@pytest.mark.parametrize("family, layout", [
    *(pytest.param(family, "bounded", id=family) for family in FAMILIES),
    *(pytest.param(family, layout, id=f"{family}-{layout}")
      for family in FAMILIES for layout in LAYOUTS if layout != "bounded"),
])
def test_compiled_agrees_over_catalog(family, layout):
    """Differential sweep: every environment a caller builds in a small
    scope gives the interpreter's value, or its ``EvalError`` message."""
    spec = get_spec(family)
    ctx = EvalContext(observe=spec.observe)
    compared = errors = 0
    for term, env, compiled in LAYOUTS[layout](spec, ctx,
                                               all_conditions()[family]):
        expected = _outcome(lambda: evaluate(term, env, ctx))
        assert _outcome(compiled) == expected, (term, env)
        compared += 1
        errors += expected[1] is not None
    assert compared
    if family == "ArrayList" and layout in ("reverify", "prover"):
        assert errors  # index partiality, with the interpreter's messages
    if layout == "precondition" and family != "Accumulator":
        assert errors  # the short calls leave a parameter unbound
