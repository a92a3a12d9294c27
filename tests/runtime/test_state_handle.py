"""The executor's abstract-state handle: every logged snapshot is what
the abstract semantics says it is, the state is materialized once per
mutation rather than twice per step, and the decision digest is the
same in every process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.impls import HashSet
from repro.runtime import LocalAdmissionBackend, SpeculativeExecutor
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


@pytest.mark.parametrize("name", BUILTINS + (DEMO_FAMILY,))
@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("mode", ("abort", "block"))
def test_logged_snapshots_follow_the_abstract_semantics(name, shards, mode):
    """Every logged ``after`` is the abstract semantics applied to its
    ``before``.  A stale cached state breaks this; comparing two
    runtimes would not, since both would share the cache."""
    registry = make_demo_registry()
    spec = registry.spec(name)
    for shape, seed in ((READ_HEAVY, 1), (WRITE_HEAVY, 2)):
        report, backend = _run(registry, name, shape, seed,
                               shards=shards, conflict_mode=mode)
        assert report.serializable
        assert backend.log
        for entry in backend.log:
            op = spec.operations[entry.op_name]
            assert op.semantics(entry.before, entry.args)[0] \
                == entry.after, entry


@pytest.mark.parametrize("shards", (1, 4))
def test_threaded_workers_share_one_consistent_state(shards):
    """More workers than cores, switching threads as often as the
    interpreter allows.  The flat mode steps under one lock, so every
    logged snapshot still follows the semantics; in both modes the
    cached final state must match the serial replay."""
    registry = make_demo_registry()
    spec = registry.spec("HashTable")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            report, backend = _run(registry, "HashTable", WRITE_HEAVY,
                                   seed, workers=4, shards=shards)
            assert report.commits == WRITE_HEAVY["transactions"]
            assert report.serializable
            if shards == 1:
                for entry in backend.log:
                    op = spec.operations[entry.op_name]
                    assert op.semantics(entry.before, entry.args)[0] \
                        == entry.after, entry
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("shape", (READ_HEAVY, WRITE_HEAVY),
                         ids=("read-heavy", "write-heavy"))
@pytest.mark.parametrize("seed", range(5))
def test_state_is_materialized_once_per_mutation(monkeypatch, shape, seed):
    """``abstract_state()`` runs at most once per executed mutator and
    per rollback that undid something, plus the first state, the final
    state and the serial replay's."""
    calls = [0]
    materialize = HashSet.abstract_state

    def counted(self):
        calls[0] += 1
        return materialize(self)

    monkeypatch.setattr(HashSet, "abstract_state", counted)
    registry = make_demo_registry()
    spec = registry.spec("HashSet")
    report, backend = _run(registry, "HashSet", shape, seed)
    assert report.serializable
    mutators = sum(spec.operations[entry.op_name].mutator
                   for entry in backend.log)
    assert calls[0] <= mutators + len(backend.undone) + 3, \
        (calls[0], mutators, len(backend.undone))


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
