"""Throughput harness: sweep (structure x policy x workload x
conflict-mode) through the speculative executor.

This is the execution-side sibling of the PR-2 verification bench: it
generates deterministic workloads, runs them under every conflict-
detection policy, and collects commits / aborts / conflict-rate /
ops-per-second — the numbers behind the paper's thesis that verified
semantic commutativity admits more concurrency than read/write conflict
detection, which in turn beats a global mutex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..runtime.executor import ExecutionReport, SpeculativeExecutor
from ..runtime.gatekeeper import POLICIES
from .generator import WorkloadGenerator
from .spec import WorkloadSpec


@dataclass
class WorkloadRun:
    """One (structure, workload, policy, conflict-mode) execution."""

    structure: str
    workload: WorkloadSpec
    policy: str
    conflict_mode: str
    workers: int
    report: ExecutionReport
    shards: int = 1
    adaptive: str | None = None
    stable: bool = False
    #: Which admission backend decided the run ("local" or "service").
    backend: str = "local"

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: everything a run
        # measured (commits, counters, throughput, ...) lives on its
        # report.  ``report`` itself and dunders are refused, so copy
        # and pickle, which probe an instance before its fields are
        # set, cannot recurse.
        if name == "report" or name.startswith("__"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"{name!r}")
        return getattr(self.report, name)

    def summary(self) -> str:
        return (f"{self.structure} [{self.workload.label}] "
                f"{self.report.summary()} "
                f"({self.ops_per_second:.0f} ops/s, "
                f"workers={self.workers}, shards={self.shards})")


#: The default sweep: three contention shapes over a shared key space
#: (every transaction draws from the same keys, so nothing is disjoint).
DEFAULT_WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(name="mixed-uniform", profile="mixed",
                 distribution="uniform", transactions=6,
                 ops_per_transaction=5, key_space=8, value_space=3,
                 seed=42),
    WorkloadSpec(name="write-heavy-hotkey", profile="write-heavy",
                 distribution="hot-key", transactions=6,
                 ops_per_transaction=5, key_space=8, value_space=3,
                 seed=43),
    WorkloadSpec(name="read-heavy-zipfian", profile="read-heavy",
                 distribution="zipfian", transactions=6,
                 ops_per_transaction=5, key_space=8, value_space=3,
                 seed=44),
    WorkloadSpec(name="shifting-hotspot", profile="write-heavy",
                 distribution="shifting-hot-key", transactions=6,
                 ops_per_transaction=5, key_space=8, value_space=3,
                 seed=45),
)

#: The workloads the ``bench --suite runtime`` CLI sweeps (kept separate
#: from DEFAULT_WORKLOADS so baseline-gated numbers stay stable even if
#: the interactive defaults evolve).
BENCH_WORKLOADS: tuple[WorkloadSpec, ...] = DEFAULT_WORKLOADS

#: Larger workloads for the flat-vs-sharded scaling comparison: enough
#: transactions and operations that the outstanding log has real depth
#: (the flat gatekeeper's full-log scans are what sharding removes), a
#: key space wide enough that most operation pairs are key-disjoint,
#: and a YCSB-style load phase so ArrayList indices spread over bands.
#: Still non-disjoint: every transaction draws from one shared key
#: space over one shared (preloaded) structure.
SCALING_WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(name="scale-mixed-uniform", profile="mixed",
                 distribution="uniform", transactions=16,
                 ops_per_transaction=12, key_space=128, value_space=4,
                 preload=32, seed=52),
    WorkloadSpec(name="scale-write-uniform", profile="write-heavy",
                 distribution="uniform", transactions=16,
                 ops_per_transaction=12, key_space=128, value_space=4,
                 preload=32, seed=53),
    WorkloadSpec(name="scale-read-uniform", profile="read-heavy",
                 distribution="uniform", transactions=16,
                 ops_per_transaction=12, key_space=128, value_space=4,
                 preload=32, seed=54),
    # YCSB workload C: pure reads over the preloaded structure.  No
    # mutation means no drift, so the outstanding log grows to full
    # depth and admission cost is pure pair-scan volume — the quantity
    # sharding cuts.
    WorkloadSpec(name="scale-readonly-zipfian", profile="read-only",
                 distribution="zipfian", transactions=16,
                 ops_per_transaction=18, key_space=128, value_space=4,
                 preload=64, seed=55),
)


class ThroughputHarness:
    """Runs workload sweeps and collects :class:`WorkloadRun` results."""

    def __init__(self, registry=None, workers: int | None = None,
                 max_rounds: int = 200_000,
                 shards: int | None = None,
                 adaptive: str | None = None,
                 stable: bool = False,
                 backend=None) -> None:
        from ..api import resolve_registry
        self.registry = resolve_registry(registry)
        #: None defers to each workload's ``workers`` hint; an explicit
        #: value (1 included) overrides every hint, so a serial harness
        #: can never be escalated to threaded execution by a spec.
        self.workers = workers
        self.max_rounds = max_rounds
        #: Same precedence scheme as ``workers``: None defers to each
        #: workload's ``shards`` hint.
        self.shards = shards
        self.adaptive = adaptive
        #: Arm every run's drift guard with the registry's compiled
        #: drift-stable conditions.
        self.stable = stable
        #: Where admission decisions come from: None is the in-process
        #: path; a :class:`~repro.service.client.ServiceBackend` routes
        #: every decision to a remote admission server.
        self.backend = backend
        self.generator = WorkloadGenerator(self.registry)

    def runnable_structures(self) -> list[str]:
        """Registered structures the executor can drive: they need a
        concrete implementation and a condition catalog."""
        return [name for name in self.registry.names()
                if self.registry.has_implementation(name)
                and self.registry.has_conditions(name)]

    def run_one(self, structure: str, workload: WorkloadSpec,
                policy: str = "commutativity",
                conflict_mode: str = "abort",
                workers: int | None = None,
                shards: int | None = None,
                adaptive: str | None = None,
                stable: bool | None = None,
                backend=None) -> WorkloadRun:
        """Generate ``workload`` for ``structure`` and execute it.

        Worker/shard-count precedence: the argument, then the harness's
        configured value, then the workload's hint.  The generated
        programs depend on none of them.
        """
        if workers is None:
            workers = self.workers if self.workers is not None \
                else workload.workers
        if shards is None:
            shards = self.shards if self.shards is not None \
                else workload.shards
        if adaptive is None:
            adaptive = self.adaptive
        if stable is None:
            stable = self.stable
        if backend is None:
            backend = self.backend
        programs = self.generator.generate(structure, workload)
        setup = self.generator.generate_setup(structure, workload)
        executor = SpeculativeExecutor(
            structure, policy=policy, seed=workload.seed,
            max_rounds=self.max_rounds, conflict_mode=conflict_mode,
            registry=self.registry, workers=workers, shards=shards,
            adaptive=adaptive, stable=stable, backend=backend)
        report = executor.run(programs, setup=setup)
        return WorkloadRun(structure=structure, workload=workload,
                           policy=policy, conflict_mode=conflict_mode,
                           workers=workers, shards=shards,
                           adaptive=adaptive, stable=stable,
                           backend=report.backend, report=report)

    def sweep(self, structures: Sequence[str] | None = None,
              workloads: Iterable[WorkloadSpec] | None = None,
              policies: Sequence[str] = POLICIES,
              conflict_modes: Sequence[str] = ("abort",),
              workers: int | None = None,
              shard_counts: Sequence[int] | None = None,
              adaptive: str | None = None) -> list[WorkloadRun]:
        """The full cross product, in deterministic order.

        ``shard_counts`` adds a sharding dimension to the sweep (e.g.
        ``(1, 4)`` runs every cell with the flat log and with four
        shards); ``None`` keeps the harness/workload default.
        """
        structures = list(structures) if structures is not None \
            else self.runnable_structures()
        workloads = tuple(workloads) if workloads is not None \
            else DEFAULT_WORKLOADS
        shard_axis: tuple[int | None, ...] = (
            tuple(shard_counts) if shard_counts is not None else (None,))
        return [self.run_one(structure, workload, policy=policy,
                             conflict_mode=mode, workers=workers,
                             shards=shards, adaptive=adaptive)
                for structure in structures
                for workload in workloads
                for policy in policies
                for mode in conflict_modes
                for shards in shard_axis]
