"""The executor's abstract-state handle keeps the state by the spec:
after every apply and every undo the kept state equals the concrete
structure's abstraction, the abstraction function runs at most twice
per run, an implementation that drifts from its spec fails the run,
the serial replay checks results and preconditions, and the decision
digest is the same in every process."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.abduction.demo import RegisterCellImpl, make_demo_spec
from repro.api import Registry
from repro.commutativity.catalog import (arraylist_conditions,
                                         set_conditions)
from repro.commutativity.conditions import Kind
from repro.impls import ArrayList, HashSet, HashTable
from repro.inverses.catalog import INVERSES
from repro.runtime import (LocalAdmissionBackend, RefinementError,
                           SpeculativeExecutor)
from repro.runtime.executor import StructureHandle
from repro.specs import arraylist_spec, set_spec
from repro.workloads import WorkloadGenerator, WorkloadSpec

SRC = Path(__file__).resolve().parents[2] / "src"
BUILTINS = ("Accumulator", "ListSet", "HashSet", "AssociationList",
            "HashTable", "ArrayList")

READ_HEAVY = dict(profile="read-heavy", distribution="uniform",
                  transactions=6, ops_per_transaction=6, key_space=24,
                  preload=12)
WRITE_HEAVY = dict(profile="write-heavy", distribution="hot-key",
                   transactions=6, ops_per_transaction=4, key_space=12,
                   value_space=3, preload=8)


class _RecordingManager:
    """Forwards to the real manager, keeping every logged operation and
    counting abort releases of transactions that logged a mutation."""

    def __init__(self, inner, spec, log: list, undone: list) -> None:
        self._inner = inner
        self._spec = spec
        self._log = log
        self._undone = undone
        self._mutated: set[int] = set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def record(self, entry, *args, **kwargs):
        self._log.append(entry)
        if self._spec.operations[entry.op_name].mutator:
            self._mutated.add(entry.txn_id)
        return self._inner.record(entry, *args, **kwargs)

    def release(self, txn_id, reason="commit"):
        if txn_id in self._mutated:
            self._mutated.discard(txn_id)
            if reason == "abort":
                self._undone.append(txn_id)
        return self._inner.release(txn_id, reason=reason)


class _RecordingBackend(LocalAdmissionBackend):
    """The in-process backend behind a :class:`_RecordingManager`."""

    def __init__(self, registry) -> None:
        super().__init__(registry)
        self.log: list = []
        self.undone: list = []

    def conflict_manager(self, ds_name, **kwargs):
        return _RecordingManager(
            super().conflict_manager(ds_name, **kwargs),
            self.registry.spec(ds_name), self.log, self.undone)


def _run(registry, name, shape, seed, **kwargs):
    backend = _RecordingBackend(registry)
    generator = WorkloadGenerator(registry)
    workload = WorkloadSpec(seed=seed, **shape)
    report = SpeculativeExecutor(
        name, "commutativity", seed=seed, registry=registry,
        backend=backend, max_rounds=50_000, **kwargs).run(
            generator.generate(name, workload),
            setup=generator.generate_setup(name, workload))
    return report, backend


@pytest.fixture
def checked_handle(monkeypatch):
    """Check the kept state against the concrete structure's
    abstraction after every apply and every undo (under the lock the
    schedulers hold for both); returns the per-call counts."""
    counts = {"apply": 0, "undo": 0}
    apply, undo = StructureHandle.apply, StructureHandle.undo

    def check(handle, kind):
        counts[kind] += 1
        assert handle.state() == handle.impl.abstract_state(), kind

    def checked_apply(self, op, args):
        results = apply(self, op, args)
        check(self, "apply")
        return results

    def checked_undo(self, undo_log):
        logged = len(undo_log)
        undo(self, undo_log)
        if logged:
            check(self, "undo")

    monkeypatch.setattr(StructureHandle, "apply", checked_apply)
    monkeypatch.setattr(StructureHandle, "undo", checked_undo)
    return counts


@pytest.mark.parametrize("name", BUILTINS + (DEMO_FAMILY,))
@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("mode", ("abort", "block"))
def test_logged_snapshots_follow_the_abstract_semantics(checked_handle,
                                                        name, shards, mode):
    """The state the spec keeps equals the concrete structure's
    abstraction after every apply and every non-empty undo, so every
    logged snapshot is the structure's real abstract state."""
    registry = make_demo_registry()
    for shape, seed in ((READ_HEAVY, 1), (WRITE_HEAVY, 2)):
        report, backend = _run(registry, name, shape, seed,
                               shards=shards, conflict_mode=mode)
        assert report.serializable
        assert backend.log
    assert checked_handle["apply"] > 0
    if mode == "abort" and name != "Accumulator":  # increments commute
        assert checked_handle["undo"] > 0


@pytest.mark.parametrize("shards", (1, 4))
def test_threaded_workers_share_one_consistent_state(checked_handle,
                                                     shards):
    """More workers than cores, switching threads as often as the
    interpreter allows.  At every shard count the scheduler applies and
    undoes under the lock that guards the structure, so the kept state
    follows the concrete one after every call, and the final state
    matches the serial replay."""
    registry = make_demo_registry()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            report, _ = _run(registry, "HashTable", WRITE_HEAVY, seed,
                             workers=4, shards=shards)
            assert report.commits == WRITE_HEAVY["transactions"]
            assert report.serializable
    finally:
        sys.setswitchinterval(interval)
    assert checked_handle["apply"] > 0


def _count_materializations(monkeypatch, cls) -> list[int]:
    calls = [0]
    materialize = cls.abstract_state

    def counted(self):
        calls[0] += 1
        return materialize(self)

    monkeypatch.setattr(cls, "abstract_state", counted)
    return calls


@pytest.mark.parametrize("shape", (READ_HEAVY, WRITE_HEAVY),
                         ids=("read-heavy", "write-heavy"))
@pytest.mark.parametrize("seed", range(5))
def test_state_is_materialized_once_per_mutation(monkeypatch, shape, seed):
    """``abstract_state()`` runs at most twice per run — once when it
    starts, once when it ends — however many mutations and rollbacks
    the run makes."""
    registry = make_demo_registry()
    for name, cls in (("HashSet", HashSet), ("HashTable", HashTable),
                      ("ArrayList", ArrayList)):
        calls = _count_materializations(monkeypatch, cls)
        report, backend = _run(registry, name, shape, seed)
        assert report.serializable
        assert calls[0] <= 2, (name, calls[0])


@pytest.mark.parametrize("name,cls", (("HashSet", HashSet),
                                      ("HashTable", HashTable),
                                      ("ArrayList", ArrayList)))
def test_abstract_state_runs_twice_despite_rollbacks(monkeypatch, name,
                                                     cls):
    """A write-heavy run that rolls back mutations still runs the
    abstraction function exactly twice."""
    registry = make_demo_registry()
    calls = _count_materializations(monkeypatch, cls)
    report, backend = _run(registry, name, WRITE_HEAVY, 2)
    assert report.serializable
    spec = registry.spec(name)
    assert sum(spec.operations[entry.op_name].mutator
               for entry in backend.log) > 2
    assert backend.undone
    assert calls[0] == 2


class _LossyCell(RegisterCellImpl):
    """Drops every other write: not a refinement of the cell's spec."""

    def __init__(self) -> None:
        super().__init__()
        self._writes = 0

    def write(self, v):
        self._writes += 1
        if self._writes % 2 == 0:
            return self._value
        return super().write(v)


def test_diverging_implementation_fails_the_run_naming_it():
    registry = Registry.with_builtins()
    registry.register_spec("LossyCell", make_demo_spec,
                           implementation=_LossyCell)
    executor = SpeculativeExecutor("LossyCell", registry=registry)
    with pytest.raises(RefinementError, match="LossyCell"):
        executor.run([[("write", ("a",)), ("write", ("b",))]])


def _doctored(build, m1, m2):
    """``build``'s catalog with the ``m1;m2`` between condition
    replaced by ``true``: an unsound admission, on purpose."""
    def doctored(spec):
        return [dataclasses.replace(c, text="true", dynamic_text=None)
                if (c.m1, c.m2, c.kind) == (m1, m2, Kind.BETWEEN) else c
                for c in build(spec)]
    return doctored


def _doctored_registry(family, make_spec, name, impl, build, m1, m2):
    registry = Registry()
    registry.register_spec(family, make_spec, aliases=(name,),
                           implementation=impl)
    registry.register_conditions(family, _doctored(build, m1, m2))
    registry.register_inverses(
        family, [inv for inv in INVERSES if inv.family == family])
    return registry


#: A serial-scheduler seed that runs T0's read, then T1's write, and
#: commits T1 before T0; each test checks the schedule through the
#: commit order and the observed results.
READ_WRITE_COMMIT_WRITER_FIRST = 6


def test_a_result_the_replay_contradicts_is_not_serializable():
    """T0's ``contains(a)`` observes False; the doctored condition
    admits T1's ``add(a)``, which commits first.  Both orders end in
    ``{a}``, so only the replay's result for ``contains(a)`` — True —
    shows that no serial order explains the run."""
    registry = _doctored_registry("Set", set_spec.make_spec, "HashSet",
                                  HashSet, set_conditions.build,
                                  "contains", "add")
    report = SpeculativeExecutor(
        "HashSet", seed=READ_WRITE_COMMIT_WRITER_FIRST,
        registry=registry).run([[("contains", ("a",))], [("add", ("a",))]])
    assert report.commit_order == [1, 0]
    assert report.final_state == report.serial_state
    # add(a), then contains(a): observed True, False; replayed True, True.
    assert report.committed_results == [True, False]
    assert report.serial_results == [True, True]
    assert not report.serializable


def test_a_broken_precondition_in_the_replay_is_not_serializable():
    """T0's ``get(0)`` runs on a one-element list; the doctored
    condition admits T1's ``remove_at(0)``, which commits first.
    Replayed in commit order, ``get(0)`` is outside its precondition:
    the run is reported, not raised."""
    registry = _doctored_registry("ArrayList", arraylist_spec.make_spec,
                                  "ArrayList", ArrayList,
                                  arraylist_conditions.build,
                                  "get", "remove_at")
    report = SpeculativeExecutor(
        "ArrayList", seed=READ_WRITE_COMMIT_WRITER_FIRST,
        registry=registry).run([[("get", (0,))], [("remove_at", (0,))]],
                               setup=[("add_at", (0, "a"))])
    assert report.commit_order == [1, 0]
    assert report.committed_results == ["a", "a"]
    assert report.serial_state is None
    assert not report.serializable


_DIGESTS = """
from repro.runtime import SpeculativeExecutor
from repro.workloads import WorkloadGenerator, WorkloadSpec

generator = WorkloadGenerator()
workload = WorkloadSpec(profile="mixed", transactions=6,
                        ops_per_transaction=4, key_space=12, preload=6,
                        seed=3)
for name in ("HashSet", "ListSet"):
    report = SpeculativeExecutor(name, seed=3).run(
        generator.generate(name, workload),
        setup=generator.generate_setup(name, workload))
    print(report.decision_digest())
"""


def test_decision_digest_does_not_depend_on_the_hash_seed():
    """Set states used to be hashed by ``repr``, which follows the
    process's hash order; two processes must digest one run equally."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONHASHSEED=hash_seed)
        result = subprocess.run([sys.executable, "-c", _DIGESTS], env=env,
                                capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.split())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]
