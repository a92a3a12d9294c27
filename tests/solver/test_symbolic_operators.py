"""The operators the generated semantics apply to symbolic values, and
the generated semantics over symbolic states."""

from repro.eval import Record
from repro.eval.values import FMap
from repro.solver import SymInt, SymMap, SymSet
from repro.specs import get_spec


def test_symset_union_and_difference_with_token_sets():
    s = SymSet(FMap({"c0": True, "c1": False}))
    assert s | frozenset({"c1"}) == SymSet(FMap({"c0": True, "c1": True}))
    assert s - frozenset({"c0"}) == SymSet(FMap({"c0": False,
                                                 "c1": False}))
    assert s | frozenset() == s and s - frozenset({"c1"}) == s
    both = s | frozenset({"c1", "c2"})
    assert "c1" in both and "c2" in both and "c0" in both
    assert s == SymSet(FMap({"c0": True, "c1": False}))  # unchanged


def test_symint_arithmetic_with_ints():
    n = SymInt("N", 2)
    assert n + 3 == SymInt("N", 5)
    assert 0 + n == n and 4 + n == SymInt("N", 6)
    assert n - 3 == SymInt("N", -1)
    assert 0 + n + 1 - 1 == n
    assert SymInt(None, 3) + 1 == 4


def test_generated_semantics_run_over_symbolic_states():
    size = SymInt("N", 0)
    sets = get_spec("Set").operations
    state = Record(contents=SymSet(FMap({"c0": False, "c1": True})),
                   size=size)
    after, added = sets["add"].semantics(state, ("c0",))
    assert added is True and after == Record(
        contents=SymSet(FMap({"c0": True, "c1": True})), size=SymInt("N", 1))
    assert sets["add"].semantics(state, ("c1",)) == (state, False)
    after, removed = sets["remove_"].semantics(state, ("c1",))
    assert removed is None and after["size"] == SymInt("N", -1)

    maps = get_spec("Map").operations
    state = Record(contents=SymMap(FMap({"k0": "w0"}),
                                   frozenset({"k0", "k1"})), size=size)
    after, previous = maps["put"].semantics(state, ("k1", "w1"))
    assert previous is None and after["size"] == SymInt("N", 1)
    assert after["contents"].lookup("k1") == "w1"
    after, previous = maps["remove"].semantics(state, ("k0",))
    assert previous == "w0" and after["size"] == SymInt("N", -1)

    accumulator = get_spec("Accumulator").operations
    state = Record(value=size)
    assert accumulator["increase"].semantics(state, (-1,)) == \
        (Record(value=SymInt("N", -1)), None)
    assert accumulator["read"].semantics(state, ()) == (state, size)
