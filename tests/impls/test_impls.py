"""Concrete implementation tests, including the paper's key phenomenon:
different operation orders produce different *concrete* states with the
same *abstract* state."""

import pytest

from repro.impls import (Accumulator, ArrayList, AssociationList, HashSet,
                         HashTable, ListSet)


# -- ListSet -----------------------------------------------------------------

def test_listset_basic():
    s = ListSet()
    assert s.add("a") and s.add("b")
    assert not s.add("a")
    assert s.contains("a") and not s.contains("c")
    assert s.size() == 2
    assert s.remove("a") and not s.remove("a")
    assert s.size() == 1


def test_listset_null_rejected():
    s = ListSet()
    with pytest.raises(ValueError):
        s.add(None)
    with pytest.raises(ValueError):
        s.contains(None)
    with pytest.raises(ValueError):
        s.remove(None)


def test_listset_insertion_order_visible_concretely():
    """Section 1.1: insertion orders produce the same abstract set but
    different linked lists."""
    s1, s2 = ListSet(), ListSet()
    s1.add("a"); s1.add("b")
    s2.add("b"); s2.add("a")
    assert s1.abstract_state() == s2.abstract_state()
    assert s1.concrete_shape() != s2.concrete_shape()


def test_listset_remove_head_middle_tail():
    s = ListSet()
    for v in ("a", "b", "c"):
        s.add(v)
    assert s.remove("b")  # middle
    assert s.remove("c")  # head (prepend order: c, b, a)
    assert s.remove("a")  # tail
    assert s.size() == 0


# -- HashSet -----------------------------------------------------------------

def test_hashset_basic_and_resize():
    s = HashSet()
    values = [f"v{i}" for i in range(20)]  # forces several resizes
    for v in values:
        assert s.add(v)
    assert s.size() == 20
    for v in values:
        assert s.contains(v)
    for v in values[:10]:
        assert s.remove(v)
    assert s.size() == 10
    assert s.abstract_state()["contents"] == frozenset(values[10:])


def test_hashset_duplicate_add():
    s = HashSet()
    assert s.add("a")
    assert not s.add("a")
    assert s.size() == 1


def test_hashset_same_abstract_different_layout():
    # "a", "e", "i" all hash to the same bucket (ordinals 97, 101, 105
    # are congruent mod 4), so the chain records insertion order.
    s1, s2 = HashSet(), HashSet()
    for v in ("a", "e", "i"):
        s1.add(v)
    for v in ("i", "e", "a"):
        s2.add(v)
    assert s1.abstract_state() == s2.abstract_state()
    assert s1.concrete_shape() != s2.concrete_shape()


# -- AssociationList / HashTable ------------------------------------------------

@pytest.mark.parametrize("cls", [AssociationList, HashTable])
def test_map_basic(cls):
    m = cls()
    assert m.put("k1", "x") is None
    assert m.put("k1", "y") == "x"
    assert m.get("k1") == "y"
    assert m.get("k2") is None
    assert m.containsKey("k1") and not m.containsKey("k2")
    assert m.size() == 1
    assert m.remove("k1") == "y"
    assert m.remove("k1") is None
    assert m.size() == 0


@pytest.mark.parametrize("cls", [AssociationList, HashTable])
def test_map_null_rejected(cls):
    m = cls()
    with pytest.raises(ValueError):
        m.put(None, "x")
    with pytest.raises(ValueError):
        m.put("k", None)
    with pytest.raises(ValueError):
        m.get(None)


def test_association_list_order_is_concrete_only():
    m1, m2 = AssociationList(), AssociationList()
    m1.put("a", "1"); m1.put("b", "2")
    m2.put("b", "2"); m2.put("a", "1")
    assert m1.abstract_state() == m2.abstract_state()
    assert m1.concrete_shape() != m2.concrete_shape()


def test_hashtable_many_keys_resize():
    m = HashTable()
    for i in range(25):
        m.put(f"k{i}", f"v{i}")
    assert m.size() == 25
    assert all(m.get(f"k{i}") == f"v{i}" for i in range(25))


# -- hash-carrying nodes -----------------------------------------------------

def _string_hash(key):
    h = 0
    for ch in key:
        h = (h * 31 + ord(ch)) & 0x7FFFFFFF
    return h


def _rehashing_reference(ops):
    """Yield the bucket layout after each of ``ops``, computed the way
    the tables used to resize: rehash every entry from its key, walking
    the old buckets head to tail and pushing each onto its new bucket's
    front."""
    table = [[] for _ in range(4)]
    size = 0
    for op, key, value in ops:
        bucket = table[_string_hash(key) % len(table)]
        index = next((i for i, (k, _) in enumerate(bucket) if k == key),
                     None)
        if op == "remove":
            if index is not None:
                del bucket[index]
                size -= 1
        elif index is not None:
            bucket[index] = (key, value)
        else:
            bucket.insert(0, (key, value))
            size += 1
            if size > 0.75 * len(table):
                old, table = table, [[] for _ in range(2 * len(table))]
                for entries in old:
                    for entry in entries:
                        table[_string_hash(entry[0]) % len(table)] \
                            .insert(0, entry)
        yield table


def _nodes(impl):
    for head in impl._table:
        node = head
        while node is not None:
            yield node
            node = node.next


def _layout(impl):
    layout = []
    for head in impl._table:
        entries, node = [], head
        while node is not None:
            entries.append((getattr(node, "key", node.value),
                            node.value))
            node = node.next
        layout.append(entries)
    return layout


@pytest.mark.parametrize("cls", [HashSet, HashTable])
def test_resize_by_stored_hash_keeps_the_rehashing_layout(cls):
    """A seeded 3,000-operation sequence leaves every bucket as the
    rehashing resize did, after every operation."""
    import random
    rng = random.Random(20111)
    ops = []
    for _ in range(3000):
        key = f"k{rng.randrange(600)}"
        op = "remove" if rng.random() < 0.3 else "insert"
        ops.append((op, key, key if cls is HashSet
                    else f"v{rng.randrange(5)}"))
    impl = cls()
    for (op, key, value), expected in zip(ops, _rehashing_reference(ops)):
        if op == "remove":
            impl.remove(key)
        elif cls is HashSet:
            impl.add(key)
        else:
            impl.put(key, value)
        assert _layout(impl) == expected
    assert len(impl._table) >= 512  # several resizes happened


@pytest.mark.parametrize("cls", [HashSet, HashTable])
def test_resize_relinks_the_existing_nodes(cls):
    impl = cls()
    insert = impl.add if cls is HashSet else (lambda k: impl.put(k, "v"))
    for key in ("a", "b", "c"):
        insert(key)
    before = list(_nodes(impl))
    insert("d")  # the fourth entry passes the 0.75 load factor
    assert len(impl._table) == 8
    after = list(_nodes(impl))
    assert all(any(old is node for node in after) for old in before)
    assert all(node.hash == _string_hash(getattr(node, "key", node.value))
               for node in after)


# -- ArrayList ---------------------------------------------------------------------

def test_arraylist_shifting():
    a = ArrayList()
    a.add_at(0, "b")
    a.add_at(0, "a")       # shift up
    a.add_at(2, "c")       # append
    assert a.abstract_state()["elems"] == ("a", "b", "c")
    assert a.remove_at(1) == "b"
    assert a.abstract_state()["elems"] == ("a", "c")
    assert a.set(1, "z") == "c"
    assert a.abstract_state()["elems"] == ("a", "z")


def test_arraylist_index_of():
    a = ArrayList()
    for i, v in enumerate(("x", "y", "x")):
        a.add_at(i, v)
    assert a.indexOf("x") == 0
    assert a.lastIndexOf("x") == 2
    assert a.indexOf("zz") == -1
    assert a.lastIndexOf("zz") == -1


def test_arraylist_bounds_checked():
    a = ArrayList()
    with pytest.raises(IndexError):
        a.get(0)
    with pytest.raises(IndexError):
        a.add_at(1, "v")
    with pytest.raises(IndexError):
        a.remove_at(0)
    with pytest.raises(IndexError):
        a.set(0, "v")
    with pytest.raises(ValueError):
        a.add_at(0, None)


def test_arraylist_growth_is_concrete_only():
    a = ArrayList()
    for i in range(10):
        a.add_at(i, "v")
    assert a.capacity() >= 10
    assert a.size() == 10
    b = ArrayList()
    for i in range(10):
        b.add_at(0, "v")
    assert a.abstract_state() == b.abstract_state()


# -- Accumulator --------------------------------------------------------------------

def test_accumulator():
    acc = Accumulator()
    acc.increase(5)
    acc.increase(-2)
    assert acc.read() == 3
    assert acc.abstract_state()["value"] == 3
