"""Parser unit tests: precedence, sort checking, elaboration."""

import dataclasses

import pytest

from repro.logic import ParseError, parse_formula, parse_term
from repro.logic import terms as t
from repro.logic.sorts import Sort
from repro.logic.symbols import SymbolTable


@pytest.fixture
def table():
    return SymbolTable(
        vars={"p": Sort.BOOL, "q": Sort.BOOL, "r": Sort.BOOL,
              "x": Sort.INT, "y": Sort.INT,
              "v1": Sort.OBJ, "v2": Sort.OBJ,
              "s": Sort.SEQ, "S": Sort.SET, "m": Sort.MAP,
              "st": Sort.STATE},
        state_fields={"contents": Sort.SET, "size": Sort.INT},
        observers={"contains": ((Sort.OBJ,), Sort.BOOL),
                   "size": ((), Sort.INT)},
        principal_field="contents",
    )


def test_precedence_and_over_or(table):
    f = parse_formula("p | q & r", table)
    assert isinstance(f, t.Or)
    assert isinstance(f.args[1], t.And)


def test_implication_right_associative(table):
    f = parse_formula("p --> q --> r", table)
    assert isinstance(f, t.Implies)
    assert isinstance(f.rhs, t.Implies)


def test_iff_loosest(table):
    f = parse_formula("p --> q <-> r", table)
    assert isinstance(f, t.Iff)


def test_negation_binds_tighter_than_and(table):
    f = parse_formula("~p & q", table)
    assert isinstance(f, t.And)
    assert isinstance(f.args[0], t.Not)


def test_neq_desugars_to_not_eq(table):
    f = parse_formula("v1 ~= v2", table)
    assert isinstance(f, t.Not)
    assert isinstance(f.arg, t.Eq)


def test_member_and_notin(table):
    f = parse_formula("v1 : S", table)
    assert isinstance(f, t.Member)
    g = parse_formula("v1 ~: S", table)
    assert isinstance(g, t.Not)
    assert isinstance(g.arg, t.Member)


def test_state_coercion_to_principal_field(table):
    f = parse_formula("v1 : st", table)
    assert isinstance(f, t.Member)
    assert isinstance(f.set_, t.Field)
    assert f.set_.name == "contents"


def test_field_access(table):
    f = parse_term("st.size", table)
    assert isinstance(f, t.Field)
    assert f.sort is Sort.INT


def test_observer_call(table):
    f = parse_formula("st.contains(v1)", table)
    assert isinstance(f, t.ObserverCall)
    assert f.method == "contains"
    assert f.sort is Sort.BOOL


def test_observer_arity_checked(table):
    with pytest.raises(ParseError):
        parse_formula("st.contains(v1, v2)", table)


def test_unknown_observer(table):
    with pytest.raises(ParseError):
        parse_formula("st.frobnicate(v1)", table)


def test_sequence_indexing(table):
    f = parse_term("s[x]", table)
    assert isinstance(f, t.SeqGet)


def test_builtin_functions(table):
    f = parse_term("idx(ins(s, x, v1), v2)", table)
    assert isinstance(f, t.SeqIndexOf)
    assert isinstance(f.seq, t.SeqInsert)


def test_builtin_arity_checked(table):
    with pytest.raises(ParseError):
        parse_term("ins(s, x)", table)


def test_arithmetic(table):
    f = parse_formula("x + 1 <= y - 2", table)
    assert isinstance(f, t.Le)
    assert isinstance(f.lhs, t.Add)
    assert isinstance(f.rhs, t.Sub)


def test_unary_minus_constant_folds(table):
    f = parse_term("-5", table)
    assert f == t.IntConst(-5)


def test_gt_ge_normalize_to_lt_le(table):
    f = parse_formula("x > y", table)
    assert isinstance(f, t.Lt)
    assert f.lhs == t.Var("y", Sort.INT)
    g = parse_formula("x >= y", table)
    assert isinstance(g, t.Le)


def test_set_literal_and_union(table):
    f = parse_term("S Un {v1, v2}", table)
    assert isinstance(f, t.Union)
    assert isinstance(f.rhs, t.FiniteSet)


def test_set_difference(table):
    f = parse_term("S - {v1}", table)
    assert isinstance(f, t.Diff)


def test_quantifier_defaults_to_int(table):
    f = parse_formula("EX i. 0 <= i & i < x", table)
    assert isinstance(f, t.Exists)
    assert f.var.var_sort is Sort.INT


def test_quantifier_obj_annotation(table):
    f = parse_formula("ALL o::obj. o : S --> o : S", table)
    assert isinstance(f, t.Forall)
    assert f.var.var_sort is Sort.OBJ


def test_quantified_var_shadows(table):
    # x is INT in the table; binder x::obj shadows it inside the body.
    f = parse_formula("EX x::obj. x = v1", table)
    assert isinstance(f, t.Exists)


def test_sort_mismatch_rejected(table):
    with pytest.raises(ParseError):
        parse_formula("x = v1", table)


def test_unknown_identifier(table):
    with pytest.raises(ParseError):
        parse_formula("zzz = x", table)


def test_null_literal(table):
    f = parse_formula("v1 ~= null", table)
    assert isinstance(f, t.Not)
    assert f.arg.rhs == t.NULL


def test_formula_must_be_boolean(table):
    with pytest.raises(ParseError):
        parse_formula("x + 1", table)


def test_trailing_garbage_rejected(table):
    with pytest.raises(ParseError):
        parse_formula("p | q q", table)


def test_bool_eq_true(table):
    f = parse_formula("st.contains(v1) = true", table)
    assert isinstance(f, t.Eq)


def test_two_parses_share_their_leaves_and_identifiers(table):
    """A parsed catalog holds one Var per (name, sort) and one string
    per identifier, however many formulas name them."""
    text = "st.contains(v1) & v1 : st.contents | (ALL idx. idx < x)"
    first = parse_formula("(" + text + ")", table)
    second = parse_formula(text, table)
    assert first == second
    strings = 0
    for a, b in zip(first.walk(), second.walk()):
        if isinstance(a, t.Var):
            assert a is b
        for field in dataclasses.fields(a):
            value = getattr(a, field.name)
            if isinstance(value, str):
                assert value is getattr(b, field.name)
                strings += 1
    assert strings >= 6
