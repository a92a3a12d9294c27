"""The sharded conflict manager: routing soundness, flat-vs-sharded
decision equivalence (the tentpole invariant), per-shard counters, and
log maintenance under multi-region storage."""

import pytest

from repro.api import Registry, Session
from repro.eval import Record
from repro.runtime import (ConflictManager, LoggedOperation,
                           SpeculativeExecutor, stable_hash)
from repro.runtime.sharding import (ARRAYLIST_BAND_WIDTH,
                                    arraylist_router, keyed_router,
                                    normalize_route, route,
                                    single_region_router)
from repro.workloads import WorkloadGenerator, WorkloadSpec

BUILTINS = ("ListSet", "HashSet", "AssociationList", "HashTable",
            "ArrayList", "Accumulator")


# -- routers -------------------------------------------------------------------

def test_stable_hash_is_process_stable():
    # crc32 of the repr: fixed values, unlike randomized str hashing.
    assert stable_hash("k0") == stable_hash("k0")
    assert stable_hash(("a", 1)) == stable_hash(("a", 1))


def test_keyed_router_routes_by_first_argument():
    a = keyed_router("add", ("k1",), 4)
    b = keyed_router("remove_", ("k1",), 4)
    assert a == b and len(a) == 1 and 0 <= a[0] < 4
    assert keyed_router("size", (), 4) is None  # interacts with all


def test_arraylist_router_banding():
    shards = 4
    wide = ARRAYLIST_BAND_WIDTH * shards
    # Value searches and size scan the whole list.
    assert arraylist_router("indexOf", ("v0",), shards) is None
    assert arraylist_router("size", (), shards) is None
    # get/set touch exactly their index's band.
    assert arraylist_router("get", (0,), shards) == (0,)
    assert arraylist_router("set", (wide,), shards) == (shards - 1,)
    assert arraylist_router("set_", (0, "v"), shards) == (0,)
    # Shifting operations cover their band and everything above.
    assert arraylist_router("add_at", (0, "v"), shards) \
        == tuple(range(shards))
    high = arraylist_router("remove_at_", (wide,), shards)
    assert high == (shards - 1,)


def test_arraylist_router_shift_overlaps_higher_indices():
    """The soundness invariant for banding: a shift at index i shares a
    shard with every (non-global) operation at index j >= i."""
    shards = 4
    for i in range(0, 24, 3):
        shift = set(arraylist_router("add_at", (i, "v"), shards))
        for j in range(i, 32, 5):
            touch = set(arraylist_router("get", (j,), shards))
            assert shift & touch, (i, j)


def test_normalize_route():
    assert normalize_route(None, 3) == (0, 1, 2)
    assert normalize_route((2, 0, 2), 3) == (0, 2)
    assert normalize_route((5,), 3) == (2,)  # clamped into range
    assert single_region_router("anything", ("x",), 8) == (0,)


def test_builtin_families_have_registered_routers():
    from repro.api import DEFAULT_REGISTRY
    for name in BUILTINS:
        assert DEFAULT_REGISTRY.has_shard_router(name), name


# -- manager construction ------------------------------------------------------

def test_route_collapses_to_shard_zero():
    """One shard, a policy other than commutativity, or no router: every
    operation routes to shard 0; otherwise the router's answer,
    normalized."""
    assert route(keyed_router, "commutativity", 1, "add", ("k",)) == (0,)
    assert route(keyed_router, "read-write", 4, "add", ("k",)) == (0,)
    assert route(keyed_router, "mutex", 4, "size", ()) == (0,)
    assert route(None, "commutativity", 4, "add", ("k",)) == (0,)
    assert route(keyed_router, "commutativity", 4, "size", ()) \
        == (0, 1, 2, 3)
    assert route(arraylist_router, "commutativity", 4, "add_at",
                 (ARRAYLIST_BAND_WIDTH, "x")) == (1, 2, 3)


def test_conflict_manager_shard_counts():
    """One class serves every shard count: at one shard every operation
    routes to shard 0, while the family router stays the virtual-region
    oracle."""
    flat = ConflictManager("HashSet", shards=1)
    assert flat.num_shards == 1 and flat.router is keyed_router
    assert flat.shards_for("add", ("k1",)) == (0,)
    assert flat.shards_for("size", ()) == (0,)
    sharded = ConflictManager("HashSet", shards=4)
    assert sharded.num_shards == 4 and sharded.router is keyed_router
    with pytest.raises(ValueError):
        ConflictManager("HashSet", shards=0)
    with pytest.raises(ValueError):  # power-of-two counts only
        ConflictManager("HashSet", shards=3)
    with pytest.raises(ValueError):
        SpeculativeExecutor("HashSet", shards=6)


def test_sharded_routing_replicates_global_ops():
    manager = ConflictManager("HashSet", shards=4)
    # A keyed op stores, scans, and locks exactly its own shard — two
    # ops on distinct keys share no lock at all; a globally-interacting
    # op (size) is replicated into every shard so each routed scan is
    # self-contained.
    shards = manager.shards_for("add", ("k1",))
    assert len(shards) == 1 and shards[0] < 4
    assert manager.shards_for("size", ()) == tuple(range(4))


def test_non_commutativity_policies_collapse_to_one_region():
    for policy in ("read-write", "mutex"):
        manager = ConflictManager("HashSet", policy, shards=4)
        assert manager.shards_for("add", ("k1",)) == (0,)


def test_custom_structure_without_router_is_single_region():
    registry = Registry()

    class Impl:
        def __init__(self):
            self.v = None

    from repro.specs.interface import (DataStructureSpec, Operation,
                                       Param, parse_pre)
    from repro.logic.sorts import Sort
    fields = {"value": Sort.OBJ}
    params = (Param("v", Sort.OBJ),)
    pre = parse_pre("v ~= null", fields, params, {}, None)
    ops = {"write": Operation(
        name="write", params=params, result_sort=None,
        precondition=pre,
        semantics=lambda state, args: (Record(value=args[0]), None),
        mutator=True)}
    spec = DataStructureSpec(
        name="Cell", state_fields=fields, principal_field=None,
        operations=ops, initial_state=Record(value=None),
        invariant=lambda state: True,
        states=lambda scope: iter([Record(value=None)]),
        arguments=lambda op, scope: iter([("a",)]))
    registry.register_spec("Cell", spec, implementation=Impl)
    manager = ConflictManager("Cell", registry=registry, shards=4)
    assert manager.shards_for("write", ("a",)) == (0,)


# -- counters ------------------------------------------------------------------

def _entry(txn_id, op, args, result, state, undo=()):
    return LoggedOperation(txn_id=txn_id, op_name=op, args=args,
                           result=result, before=state, after=state,
                           undo=undo)


def test_per_shard_counters_sum_to_totals():
    manager = ConflictManager("HashSet", shards=4)
    s0 = Record(contents=frozenset(), size=0)
    for i, key in enumerate(("a", "b", "c", "d")):
        manager.record(_entry(1, "add", (key,), True, s0,
                              undo=(("remove", (key,)),)))
    manager.admits(2, "size", (), s0)       # scans everything
    manager.admits(2, "add", ("a",), s0)    # scans one shard + global
    stats = manager.shard_stats()
    assert len(stats) == 4
    counters = manager.counters()
    assert sum(s["conflict_checks"] for s in stats) \
        == counters["conflict_checks"]
    assert sum(s["conflicts"] for s in stats) == counters["conflicts"]


def test_multi_region_entries_are_checked_once():
    """A globally-stored entry (size) must contribute exactly one check
    per admission, not one per scanned region — the aggregation-safety
    satellite: totals never double- or under-count."""
    flat = ConflictManager("HashSet")
    sharded = ConflictManager("HashSet", shards=4)
    s0 = Record(contents=frozenset({"a"}), size=1)
    for manager in (flat, sharded):
        manager.record(_entry(1, "size", (), 1, s0))
        assert manager.admits(2, "contains", ("a",), s0)
    assert flat.counters()["conflict_checks"] \
        == sharded.counters()["conflict_checks"] == 1


def test_release_clears_all_regions():
    manager = ConflictManager("HashSet", shards=4)
    s0 = Record(contents=frozenset(), size=0)
    manager.record(_entry(1, "size", (), 0, s0))
    manager.record(_entry(1, "add", ("a",), True, s0,
                          undo=(("remove", ("a",)),)))
    assert len(manager.outstanding(1)) == 2
    assert manager.touched(1)
    manager.release(1)
    assert manager.outstanding() == []
    assert manager.touched(1) == ()


# -- the tentpole invariant: sharded decisions == flat decisions ---------------

def _trace(report):
    return (report.commit_order, report.aborts, report.operations,
            report.conflicts, report.txn_aborts, report.final_state)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("profile", ("mixed", "write-heavy"))
def test_sharded_equals_flat_at_one_worker(name, profile):
    """At workers=1 the scheduler is deterministic, so identical
    admission decisions mean byte-identical traces: the sharded manager
    must reproduce the flat log exactly (it only ever skips pairs that
    unconditionally commute)."""
    generator = WorkloadGenerator()
    for seed in (1, 7, 23):
        workload = WorkloadSpec(profile=profile, distribution="hot-key",
                                transactions=6, ops_per_transaction=5,
                                key_space=8, value_space=3, seed=seed)
        programs = generator.generate(name, workload)
        traces = []
        for shards in (1, 2, 4):
            executor = SpeculativeExecutor(
                name, "commutativity", seed=seed, shards=shards,
                max_rounds=200_000)
            traces.append(_trace(executor.run(programs)))
        assert traces[0] == traces[1] == traces[2], (name, seed)


@pytest.mark.parametrize("policy", ("read-write", "mutex"))
def test_sharded_equals_flat_under_pessimistic_policies(policy):
    generator = WorkloadGenerator()
    workload = WorkloadSpec(profile="mixed", transactions=5,
                            ops_per_transaction=4, key_space=6, seed=11)
    programs = generator.generate("HashSet", workload)
    flat = SpeculativeExecutor("HashSet", policy, seed=11,
                               max_rounds=200_000).run(programs)
    sharded = SpeculativeExecutor("HashSet", policy, seed=11, shards=4,
                                  max_rounds=200_000).run(programs)
    assert _trace(flat) == _trace(sharded)


def _register_registry():
    """A fully-registered custom structure (spec + conditions + inverse
    + implementation) with NO shard router: a shared overwrite register
    whose writes conflict unless value and overwritten value agree."""
    from repro.commutativity import CommutativityCondition, Kind
    from repro.inverses.catalog import Arg, Guard, InverseCall, InverseSpec
    from repro.logic.sorts import Sort
    from repro.specs.interface import (DataStructureSpec, Operation,
                                       Param, parse_pre)

    class RegisterImpl:
        def __init__(self):
            self.value = "init"

        def write(self, v):
            old = self.value
            self.value = v
            return old

        def read(self):
            return self.value

        def abstract_state(self):
            return Record(value=self.value)

    fields = {"value": Sort.OBJ}
    params = (Param("v", Sort.OBJ),)
    operations = {
        "write": Operation(
            name="write", params=params, result_sort=Sort.OBJ,
            precondition=parse_pre("v ~= null", fields, params, {}, None),
            semantics=lambda s, a: (Record(value=a[0]), s["value"]),
            mutator=True),
        "read": Operation(
            name="read", params=(), result_sort=Sort.OBJ,
            precondition=parse_pre("true", fields, (), {}, None),
            semantics=lambda s, a: (s, s["value"]), mutator=False),
    }
    spec = DataStructureSpec(
        name="Register", state_fields=fields, principal_field=None,
        operations=operations, initial_state=Record(value="init"),
        invariant=lambda state: True,
        states=lambda scope: iter([Record(value=v)
                                   for v in scope.objects]),
        arguments=lambda op, scope: iter(
            [(v,) for v in scope.objects] if op.params else [()]))
    registry = Registry()
    registry.register_spec("Register", spec,
                           implementation=RegisterImpl)
    texts = {("write", "write"): "v1 = v2 & s1.value = v1",
             ("write", "read"): "s1.value = v1",
             ("read", "write"): "s1.value = v2",
             ("read", "read"): "true"}
    registry.register_conditions("Register", [
        CommutativityCondition(family="Register", m1=m1, m2=m2,
                               kind=Kind.BETWEEN, text=text, spec=spec)
        for (m1, m2), text in texts.items()])
    registry.register_inverses("Register", [InverseSpec(
        family="Register", op="write", guard=Guard.NONE,
        then=(InverseCall("write", (Arg.result(),)),))])
    return registry


def test_sharded_equals_flat_for_custom_structure():
    """A registered custom structure with no shard router falls back to
    a single region: sharded execution is the flat log by construction."""
    registry = _register_registry()
    programs = [[("write", ("a",)), ("read", ())],
                [("write", ("b",)), ("write", ("a",))],
                [("read", ()), ("write", ("c",))]]
    traces = []
    for shards in (1, 4):
        for seed in (0, 5, 9):
            executor = SpeculativeExecutor(
                "Register", "commutativity", seed=seed, shards=shards,
                registry=registry, max_rounds=100_000)
            traces.append((seed, _trace(executor.run(programs))))
    assert traces[:3] == traces[3:]
    # The workload genuinely conflicts somewhere, or the test is vacuous.
    assert any(trace[1][1] > 0 for trace in traces)


def test_custom_shard_router_hook():
    """A custom structure can register its own router; the registry hook
    feeds straight into the conflict manager."""
    from tests.runtime.test_executor_edges import _cell_registry
    registry = _cell_registry()
    calls = []

    def router(op_name, args, num_shards):
        calls.append(op_name)
        return (stable_hash(args[0]) % num_shards,) if args else None

    registry.register_shard_router("Cell", router)
    assert registry.shard_router("Cell") is router
    manager = ConflictManager("Cell", registry=registry, shards=4)
    expected = (stable_hash("x") % 4,)
    assert manager.shards_for("write", ("x",)) == expected
    assert calls


def test_session_run_workload_shards_and_adaptive():
    report = Session().run_workload(
        "HashSet", "write-heavy", transactions=5, ops_per_transaction=4,
        key_space=6, seed=3, shards=4, adaptive="hybrid")
    assert report.shards == 4
    assert report.adaptive == "hybrid"
    assert report.commits == 5
    assert report.serializable
    assert len(report.shard_stats) == 4
