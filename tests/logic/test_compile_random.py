"""Property tests of the generated formula functions: on random
well-sorted terms over every sort, each compiled function returns the
interpreter's value or raises the interpreter's exception with the same
message, and its source never splices a term's value into its text.
The same terms, as the conditions of an operation pair, check in the
bounded checker's generated pair loop as in the plain reference loop."""

import sys
import warnings
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commutativity.bounded import check_conditions
from repro.eval import EvalContext, EvalError, FMap, Record, Scope, evaluate
from repro.logic import terms as t
from repro.logic.compile import NOT_CONST, lower_term
from repro.logic.sorts import Sort
from repro.logic.substitution import substitute
from repro.specs.interface import DataStructureSpec, Operation, Param

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "commutativity"))

from pair_reference import observed, outcome, reference  # noqa: E402

#: An object name that would break out of a string literal, start a new
#: statement and escape a backslash if spliced into source unquoted.
NASTY = "'\"); import os #\n\\"

#: The slot layout: ``x`` and ``s`` are bound twice, so a read must
#: see the last slot, as the interpreter's dict keeps the last binding.
LAYOUT = ("p", "x", "y", "v", "u", "S", "m", "s", "st", "x", "s")
SORTS = {"p": Sort.BOOL, "x": Sort.INT, "y": Sort.INT, "v": Sort.OBJ,
         "u": Sort.OBJ, "S": Sort.SET, "m": Sort.MAP, "s": Sort.SEQ,
         "st": Sort.STATE}

#: Quantified variables: ``i`` and ``o`` are fresh, and also appear
#: unbound outside a quantifier; ``x`` and ``v`` shadow layout names.
QUANTIFIED = (t.Var("i", Sort.INT), t.Var("o", Sort.OBJ),
              t.Var("x", Sort.INT), t.Var("v", Sort.OBJ))

OBJECTS = ("a", "b", NASTY)
objects = st.sampled_from((*OBJECTS, None))
ints = st.integers(-2, 3)
sets = st.frozensets(st.sampled_from(OBJECTS), max_size=3)
maps = st.dictionaries(st.sampled_from(OBJECTS), objects,
                       max_size=3).map(FMap)
seqs = st.lists(objects, max_size=3).map(tuple)
states = st.builds(lambda contents, size, elems: Record(
    contents=contents, size=size, elems=elems), sets, ints, seqs)
VALUES = {Sort.BOOL: st.booleans(), Sort.INT: ints, Sort.OBJ: objects,
          Sort.SET: sets, Sort.MAP: maps, Sort.SEQ: seqs,
          Sort.STATE: states}
environments = st.tuples(*(VALUES[SORTS[name]] for name in LAYOUT))

FIELDS = {Sort.SET: "contents", Sort.INT: "size", Sort.SEQ: "elems"}


def observe(state, method, args):
    """Three observers: ``contains`` is total, ``at`` raises
    ``EvalError`` out of range, ``count`` takes no argument."""
    if method == "contains":
        return args[0] in state["contents"]
    if method == "at":
        (index,) = args
        if not 0 <= index < len(state["elems"]):
            raise EvalError(f"observer at({index}) out of range")
        return state["elems"][index]
    return len(state["elems"])


OBSERVERS = {Sort.BOOL: ("contains", (Sort.OBJ,)),
             Sort.OBJ: ("at", (Sort.INT,)),
             Sort.INT: ("count", ())}

#: Derived domains; explicit ones, which never fold a quantifier;
#: empty ones; and no observer dispatcher at all.
CONTEXTS = (EvalContext(observe=observe),
            EvalContext(observe=observe, int_domain=(-1, 0, 2),
                        obj_domain=("a", None)),
            EvalContext(observe=observe, int_domain=(), obj_domain=()),
            EvalContext())


def _leaves(sort):
    names = [t.Var(name, sort) for name, s in SORTS.items() if s is sort]
    names += [var for var in QUANTIFIED if var.var_sort is sort]
    consts = {Sort.BOOL: [t.TRUE, t.FALSE],
              Sort.INT: [t.IntConst(n) for n in (-1, 0, 2)],
              Sort.OBJ: [t.NULL, *map(t.ObjConst, OBJECTS)],
              Sort.SET: [t.FiniteSet(())]}.get(sort, [])
    return st.sampled_from(names + consts)


def _joined(sub, cls):
    return st.lists(sub(Sort.BOOL), max_size=3).map(
        lambda args: cls(tuple(args)))


@lru_cache(maxsize=None)
def terms(sort: Sort, depth: int):
    """Well-sorted terms of ``sort`` nested at most ``depth`` deep."""
    leaves = _leaves(sort)
    if depth == 0:
        return leaves

    def sub(s):
        return terms(s, depth - 1)

    options = [leaves, st.builds(t.Ite, sub(Sort.BOOL), sub(sort),
                                 sub(sort))]
    if sort in FIELDS:
        options.append(st.builds(
            lambda state: t.Field(state, FIELDS[sort], sort),
            sub(Sort.STATE)))
    if sort in OBSERVERS:
        method, params = OBSERVERS[sort]
        options.append(st.builds(
            lambda state, *args: t.ObserverCall(state, method, args, sort),
            sub(Sort.STATE), *map(sub, params)))
    if sort is Sort.BOOL:
        options += [
            st.builds(t.Not, sub(Sort.BOOL)),
            _joined(sub, t.And), _joined(sub, t.Or),
            st.builds(t.Implies, sub(Sort.BOOL), sub(Sort.BOOL)),
            st.builds(t.Iff, sub(Sort.BOOL), sub(Sort.BOOL)),
            st.sampled_from(list(VALUES)).flatmap(
                lambda s: st.builds(t.Eq, sub(s), sub(s))),
            st.builds(t.Lt, sub(Sort.INT), sub(Sort.INT)),
            st.builds(t.Le, sub(Sort.INT), sub(Sort.INT)),
            st.builds(t.Member, sub(Sort.OBJ), sub(Sort.SET)),
            st.builds(t.SubsetEq, sub(Sort.SET), sub(Sort.SET)),
            st.builds(t.MapHasKey, sub(Sort.MAP), sub(Sort.OBJ)),
            st.builds(t.SeqContains, sub(Sort.SEQ), sub(Sort.OBJ)),
            st.builds(t.Forall, st.sampled_from(QUANTIFIED),
                      sub(Sort.BOOL)),
            st.builds(t.Exists, st.sampled_from(QUANTIFIED),
                      sub(Sort.BOOL)),
        ]
    elif sort is Sort.INT:
        options += [
            st.lists(sub(Sort.INT), max_size=3).map(
                lambda args: t.Add(tuple(args))),
            st.builds(t.Sub, sub(Sort.INT), sub(Sort.INT)),
            st.builds(t.Neg, sub(Sort.INT)),
            st.builds(t.Card, sub(Sort.SET)),
            st.builds(t.MapSize, sub(Sort.MAP)),
            st.builds(t.SeqLen, sub(Sort.SEQ)),
            st.builds(t.SeqIndexOf, sub(Sort.SEQ), sub(Sort.OBJ)),
            st.builds(t.SeqLastIndexOf, sub(Sort.SEQ), sub(Sort.OBJ)),
        ]
    elif sort is Sort.OBJ:
        options += [
            st.builds(t.MapGet, sub(Sort.MAP), sub(Sort.OBJ)),
            st.builds(t.SeqGet, sub(Sort.SEQ), sub(Sort.INT)),
        ]
    elif sort is Sort.SET:
        options += [
            st.builds(t.Union, sub(Sort.SET), sub(Sort.SET)),
            st.builds(t.Inter, sub(Sort.SET), sub(Sort.SET)),
            st.builds(t.Diff, sub(Sort.SET), sub(Sort.SET)),
            st.lists(sub(Sort.OBJ), max_size=3).map(
                lambda elems: t.FiniteSet(tuple(elems))),
            st.builds(t.MapKeys, sub(Sort.MAP)),
        ]
    elif sort is Sort.MAP:
        options += [
            st.builds(t.MapPut, sub(Sort.MAP), sub(Sort.OBJ),
                      sub(Sort.OBJ)),
            st.builds(t.MapRemoveKey, sub(Sort.MAP), sub(Sort.OBJ)),
        ]
    elif sort is Sort.SEQ:
        options += [
            st.builds(t.SeqInsert, sub(Sort.SEQ), sub(Sort.INT),
                      sub(Sort.OBJ)),
            st.builds(t.SeqRemove, sub(Sort.SEQ), sub(Sort.INT)),
            st.builds(t.SeqUpdate, sub(Sort.SEQ), sub(Sort.INT),
                      sub(Sort.OBJ)),
        ]
    return st.one_of(options)


any_term = st.sampled_from(list(VALUES)).flatmap(lambda s: terms(s, 4))


def _outcome(thunk):
    """The value with its type, or the exception's type and message."""
    try:
        value = thunk()
    except Exception as exc:  # compared below, not swallowed
        return "raised", type(exc).__name__, str(exc)
    return "returned", type(value).__name__, value


def _compile_strictly(term, ctx, names=LAYOUT):
    """Lower and compile with every warning an error: a ``compile()``
    ``SyntaxWarning`` means the source spelled something it should not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lowered = lower_term(term, names, ctx)
        return lowered, lowered.function()


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(term=any_term, values=environments,
       ctx=st.sampled_from(CONTEXTS))
def test_generated_function_matches_interpreter(term, values, ctx):
    lowered, fn = _compile_strictly(term, ctx)
    expected = _outcome(lambda: evaluate(term, dict(zip(LAYOUT, values)),
                                         ctx))
    assert _outcome(lambda: fn(list(values))) == expected, lowered.source
    if lowered.total:
        assert expected[0] == "returned", lowered.source
    if lowered.const is not NOT_CONST:
        assert expected == _outcome(lambda: lowered.const)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(term=terms(Sort.BOOL, 3))
def test_source_spells_values_only_as_literals(term):
    """Every value a term carries reaches the source as the ``repr`` of
    an ``int``, ``bool``, ``None`` or ``str``, or by name; so no object
    name, however quoted, appears raw in the text, and the text
    compiles without a warning."""
    lowered, _ = _compile_strictly(term, CONTEXTS[0])
    assert NASTY not in lowered.source


def test_quoted_object_name_evaluates_as_the_interpreter():
    """An object constant whose name holds quotes, a backslash and a
    newline compiles without a warning and compares as a plain string,
    both as a literal and inside a folded set bound by name."""
    v = t.Var("v", Sort.OBJ)
    for term in (t.Eq(v, t.ObjConst(NASTY)),
                 t.Member(v, t.Union(t.FiniteSet((t.ObjConst(NASTY),)),
                                     t.Var("S", Sort.SET)))):
        _, fn = _compile_strictly(term, EvalContext(), ("v", "S"))
        for value in (NASTY, "a", None):
            assert fn([value, frozenset()]) \
                is evaluate(term, {"v": value, "S": frozenset()}) \
                is (value == NASTY)


def test_deep_terms_move_into_helper_functions():
    """Subterms nested deeper than one generated function holds (the
    tokenizer refuses source nested 200 brackets deep) move into
    helper functions, and the term still evaluates as the interpreter
    evaluates it."""
    x = t.Var("x", Sort.INT)
    term = x
    for level in range(250):
        term = t.Neg(term) if level % 2 else t.Ite(
            t.Lt(x, t.IntConst(level % 7)), term, t.IntConst(level))
    lowered, fn = _compile_strictly(term, EvalContext(), ("x",))
    assert "def _h" in lowered.source
    for value in (0, 3, 9):
        assert fn([value]) == evaluate(term, {"x": value})


# -- the terms as the conditions of a pair -----------------------------------
#
# A pair whose layout binds a value of every sort of ``LAYOUT``: ``put``
# takes ``p``, ``x``, ``v`` and ``S`` and returns a boolean; ``take``
# takes ``y``, ``u``, ``m`` and ``s`` and returns an object; the states
# carry the fields the terms read.  ``take``'s ``s2`` is bound twice, so
# it reads the parameter, as the interpreter's dict keeps the last
# binding.  ``put`` is undefined for ``x = 3``, so some reverse orders
# are too.


def _put(state, args):
    p, x, v, members = args
    contents = state["contents"] | members if p \
        else state["contents"] - {v}
    return (Record(contents=contents, size=x,
                   elems=(state["elems"] + (v,))[-3:]),
            v in state["contents"])


def _take(state, args):
    y, u, m, q = args
    return (Record(contents=state["contents"], size=state["size"] + y,
                   elems=q), m.lookup(u))


PAIR_ARGUMENTS = {
    "put": [(p, x, v, members) for p in (False, True) for x in (0, 3)
            for v in ("a", NASTY)
            for members in (frozenset(), frozenset("b"))],
    "take": [(y, u, m, q) for y in (1,) for u in ("a", None)
             for m in (FMap({"a": "b"}),) for q in ((), ("a", NASTY))],
}
PAIR_STATES = (Record(contents=frozenset(), size=0, elems=()),
               Record(contents=frozenset({"a"}), size=1, elems=("a",)),
               Record(contents=frozenset({"b", NASTY}), size=-1,
                      elems=(None, "b")))


def _pair_spec(dispatch) -> DataStructureSpec:
    x = t.Var("x", Sort.INT)
    operations = {
        "put": Operation(
            name="put", params=(Param("p", Sort.BOOL), Param("x", Sort.INT),
                                Param("v", Sort.OBJ), Param("S", Sort.SET)),
            result_sort=Sort.BOOL, precondition=t.Lt(x, t.IntConst(3)),
            mutator=True, semantics=_put),
        "take": Operation(
            name="take", params=(Param("y", Sort.INT), Param("u", Sort.OBJ),
                                 Param("m", Sort.MAP), Param("s", Sort.SEQ)),
            result_sort=Sort.OBJ, precondition=t.TRUE, mutator=True,
            semantics=_take),
    }
    spec = DataStructureSpec(
        name="RandomPair", state_fields={"contents": Sort.SET,
                                         "size": Sort.INT,
                                         "elems": Sort.SEQ},
        principal_field="contents", operations=operations,
        initial_state=PAIR_STATES[0], invariant=lambda state: True,
        states=lambda scope: iter(PAIR_STATES),
        arguments=lambda op, scope: iter(PAIR_ARGUMENTS[op.name]))
    spec.observe = dispatch
    return spec


#: Each name of ``LAYOUT`` as a variable of the pair's layout; ``p``,
#: ``u`` and ``st`` have several, and ``s`` is the parameter ``s2``.
PAIR_NAMES = {"p": ("p1", "r1"), "x": ("x1",), "y": ("y2",),
              "v": ("v1",), "u": ("u2", "r2"), "S": ("S1",),
              "m": ("m2",), "s": ("s2",), "st": ("s1", "s3")}
renamings = st.fixed_dictionaries({
    name: st.sampled_from(choices) for name, choices in PAIR_NAMES.items()})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(formulas=st.lists(terms(Sort.BOOL, 3), min_size=1, max_size=3),
       renaming=renamings, repeat=st.booleans(),
       dispatch=st.sampled_from((observe, None)))
def test_random_conditions_check_like_the_reference_loop(
        formulas, renaming, repeat, dispatch):
    """Each random term, its layout names renamed into the pair's, is a
    condition of ``put; take`` (once more when ``repeat``, so two
    conditions share one formula); the pair loop's results equal the
    reference loop's, or both raise the same error."""
    spec = _pair_spec(dispatch)
    put, take = spec.operations["put"], spec.operations["take"]
    mapping = {name: t.Var(renaming[name], SORTS[name]) for name in SORTS}
    renamed = [substitute(formula, mapping) for formula in formulas]
    conditions = [SimpleNamespace(m1="put", m2="take", op1=put, op2=take,
                                  formula=formula, dynamic_formula=formula)
                  for formula in renamed + renamed[:repeat]]
    scope = Scope()
    got = outcome(lambda: observed(check_conditions(
        spec, conditions, scope, max_counterexamples=1000)))
    expected = outcome(lambda: reference(spec, conditions, scope,
                                         max_counterexamples=1000))
    assert got == expected
