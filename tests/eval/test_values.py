"""Value-domain tests: FMap, Record, sequence helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.eval.values import (FMap, Record, seq_index_of, seq_insert,
                               seq_last_index_of, seq_remove, seq_update)


def test_fmap_basic():
    m = FMap({"a": "x"})
    assert m["a"] == "x"
    assert m.lookup("b") is None
    assert len(m) == 1
    assert "a" in m


def test_fmap_put_is_functional():
    m = FMap()
    m2 = m.put("a", "x")
    assert len(m) == 0
    assert m2.lookup("a") == "x"


def test_fmap_remove():
    m = FMap({"a": "x", "b": "y"})
    m2 = m.remove("a")
    assert "a" not in m2 and "b" in m2
    assert m.remove("zz") is m  # no-op returns self


def test_fmap_equality_and_hash():
    assert FMap({"a": "x"}) == FMap({"a": "x"})
    assert hash(FMap({"a": "x"})) == hash(FMap({"a": "x"}))
    assert FMap({"a": "x"}) != FMap({"a": "y"})


def test_record_fields_and_replace():
    r = Record(contents=frozenset({"a"}), size=1)
    assert r["size"] == 1
    r2 = r.replace(size=2)
    assert r["size"] == 1 and r2["size"] == 2
    assert set(r) == {"contents", "size"}


def test_record_equality_hash():
    a = Record(x=1, y=2)
    b = Record(y=2, x=1)
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("seq,value,first,last", [
    ((), "a", -1, -1),
    (("a",), "a", 0, 0),
    (("a", "b", "a"), "a", 0, 2),
    (("b", "b"), "a", -1, -1),
])
def test_index_of(seq, value, first, last):
    assert seq_index_of(seq, value) == first
    assert seq_last_index_of(seq, value) == last


def test_insert_remove_update():
    s = ("a", "b", "c")
    assert seq_insert(s, 0, "x") == ("x", "a", "b", "c")
    assert seq_insert(s, 3, "x") == ("a", "b", "c", "x")
    assert seq_remove(s, 1) == ("a", "c")
    assert seq_update(s, 2, "x") == ("a", "b", "x")


# -- property-based invariants ----------------------------------------------

elements = st.sampled_from(("a", "b", "c"))
sequences = st.lists(elements, max_size=6).map(tuple)


@given(sequences, elements, st.integers(0, 6))
def test_insert_then_remove_roundtrip(seq, v, i):
    i = min(i, len(seq))
    assert seq_remove(seq_insert(seq, i, v), i) == seq


@given(sequences, elements)
def test_index_of_agrees_with_membership(seq, v):
    assert (seq_index_of(seq, v) >= 0) == (v in seq)
    if v in seq:
        assert seq[seq_index_of(seq, v)] == v
        assert seq[seq_last_index_of(seq, v)] == v
        assert seq_index_of(seq, v) <= seq_last_index_of(seq, v)


@given(st.dictionaries(st.sampled_from("abc"), st.sampled_from("xyz")))
def test_fmap_mirrors_dict(data):
    m = FMap(data)
    assert dict(m.items()) == data
    for k, v in data.items():
        assert m.lookup(k) == v


# -- lazily cached hashes ----------------------------------------------------

small_maps = st.dictionaries(st.sampled_from("abcd"), st.sampled_from("xyz"),
                             max_size=4)
hash_first = st.sampled_from(("neither", "left", "right", "both"))


def _hash(order, a, b):
    if order in ("left", "both"):
        hash(a)
    if order in ("right", "both"):
        hash(b)


@given(small_maps, small_maps, hash_first)
def test_fmap_equality_follows_dicts_whichever_side_hashed(left, right,
                                                          order):
    """``==`` agrees with a plain dict compare however many operands
    already cached a hash, and equal maps hash equally."""
    a, b = FMap(left), FMap(right)
    _hash(order, a, b)
    assert (a == b) is (left == right)
    assert (b == a) is (left == right)
    if a == b:
        assert hash(a) == hash(b)


@given(small_maps, small_maps, st.integers(0, 3), st.integers(0, 3),
       hash_first)
def test_record_equality_follows_dicts_whichever_side_hashed(
        left, right, size_left, size_right, order):
    a = Record(contents=FMap(left), size=size_left)
    b = Record(size=size_right, contents=FMap(right))
    _hash(order, a, b)
    _hash(order, a["contents"], b["contents"])
    expected = (left, size_left) == (right, size_right)
    assert (a == b) is expected
    assert (b == a) is expected
    if a == b:
        assert hash(a) == hash(b)


@given(small_maps, st.sampled_from("abcde"), st.sampled_from("xyz"),
       st.booleans())
def test_functional_updates_leave_the_original_unchanged(data, key, value,
                                                        hashed):
    m = FMap(data)
    if hashed:
        hash(m)
    before = hash(FMap(data))
    put, removed = m.put(key, value), m.remove(key)
    assert dict(m.items()) == data
    assert hash(m) == before
    assert dict(put.items()) == {**data, key: value}
    assert dict(removed.items()) == {k: v for k, v in data.items()
                                     if k != key}
    record = Record(contents=m, size=len(data))
    replaced = record.replace(size=len(data) + 1)
    assert record["size"] == len(data) and replaced["size"] == len(data) + 1


def test_cached_hashes_do_not_cross_a_pickle():
    """A str hash differs between processes, so a pickled value must
    not carry its cached hash."""
    import pickle
    record = Record(contents=FMap({"a": "x"}), size=1)
    hash(record)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert copy._hash is None and copy["contents"]._hash is None
