"""The :class:`Session` facade: one object for the whole pipeline.

A session binds a :class:`~repro.api.registry.Registry`, a verification
:class:`~repro.eval.enumeration.Scope`, and a default backend, and
exposes the verify -> synthesize -> run workflow against them::

    session = Session(registry=registry, scope=Scope(), backend="bounded")
    session.verify("HashSet").all_verified
    session.check_inverses("HashSet")
    session.synthesize("HashSet", "contains", "add", Kind.BETWEEN, atoms)
    session.executor("HashSet").run(programs)

Custom structures registered on the session's registry verify through
exactly the same calls as the paper's six built-ins.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Sequence

from ..commutativity.conditions import CommutativityCondition, Kind
from ..engine.cache import DEFAULT_CACHE_DIR, ResultCache
from ..eval.enumeration import Scope
from ..inverses.catalog import InverseSpec
from ..specs.interface import DataStructureSpec
from .default import DEFAULT_REGISTRY
from .registry import Registry, _coerce_kind


class Session:
    """A registry + scope + backend bound into one pipeline object.

    ``jobs`` and ``cache`` set the session-wide defaults for the sharded
    verification engine (:mod:`repro.engine`): ``jobs=None`` honours the
    ``REPRO_JOBS`` environment variable (serial otherwise, ``0`` = all
    CPUs), and ``cache=True`` — the default — serves already-proven
    obligations from the content-addressed ``.repro-cache/`` store.
    Every verification call accepts per-call overrides.  The session
    keeps one :class:`~repro.engine.cache.ResultCache` per cache
    directory across its calls, so the file is read once and each entry
    serialized once; entries another writer adds between calls are
    read back in before the session writes.
    """

    def __init__(self, registry: Registry | None = None,
                 scope: Scope | None = None,
                 backend: str = "bounded",
                 jobs: int | None = None,
                 cache=True) -> None:
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.scope = scope or Scope()
        self.backend = backend
        self.jobs = jobs
        self.cache = cache
        #: Absolute cache directory -> its store, kept across calls.
        self._stores: dict[str, ResultCache] = {}

    def _jobs(self, jobs: int | None) -> int | None:
        return jobs if jobs is not None else self.jobs

    def _cache(self, cache):
        """The store of a call's ``cache`` argument (the session's by
        default): one per directory for the session's life."""
        cache = cache if cache is not None else self.cache
        if cache is None or cache is False or isinstance(cache, ResultCache):
            return cache
        root = os.path.abspath(DEFAULT_CACHE_DIR if cache is True else cache)
        store = self._stores.get(root)
        if store is None:
            store = self._stores[root] = ResultCache(root)
        return store

    # -- lookups -------------------------------------------------------------

    def spec(self, name: str) -> DataStructureSpec:
        return self.registry.spec(name)

    def conditions(self, name: str) -> list[CommutativityCondition]:
        return self.registry.conditions(name)

    def condition(self, name: str, m1: str, m2: str,
                  kind: Kind | str) -> CommutativityCondition:
        return self.registry.condition(name, m1, m2, kind)

    def inverses(self, name: str) -> list[InverseSpec]:
        return self.registry.inverses(name)

    # -- verification --------------------------------------------------------

    def verify(self, name: str, backend: str | None = None,
               use_dynamic: bool = False, jobs: int | None = None,
               cache=None):
        """Verify every condition of one structure; a
        :class:`~repro.commutativity.verifier.VerificationReport`."""
        from ..commutativity.verifier import verify_data_structure
        return verify_data_structure(name, self.scope,
                                     backend=backend or self.backend,
                                     use_dynamic=use_dynamic,
                                     registry=self.registry,
                                     jobs=self._jobs(jobs),
                                     cache=self._cache(cache))

    def verify_all(self, names: Sequence[str] | None = None,
                   backend: str | None = None, jobs: int | None = None,
                   cache=None):
        """Verify every registered structure (or the ``names`` given),
        sharded over ``jobs`` workers with cache-served obligations."""
        from ..commutativity.verifier import verify_all
        return verify_all(self.scope, backend=backend or self.backend,
                          names=names, registry=self.registry,
                          jobs=self._jobs(jobs), cache=self._cache(cache))

    def check_inverses(self, name: str | None = None,
                       jobs: int | None = None, cache=None):
        """Check Property 3 for one structure's inverses (or all)."""
        from ..engine import run_inverse_verification
        names = None if name is None else (name,)
        return run_inverse_verification(self.scope, names=names,
                                        registry=self.registry,
                                        jobs=self._jobs(jobs),
                                        cache=self._cache(cache))

    def compile_stable(self, names: Sequence[str] | None = None,
                       scope: Scope | None = None,
                       jobs: int | None = None, cache=None,
                       register: bool = True, prover: bool = False,
                       abduce: bool = False):
        """Compile drift-stable conditions for the named structures (or
        every structure with a condition catalog) and register the
        artifacts on this session's registry.

        Returns ``{name: StabilityReport}``.  Runs through the sharded
        engine — compiled verdicts are content-addressed and served
        from ``.repro-cache/`` on reruns — and by default registers
        each family's weakenings via
        :meth:`~repro.api.Registry.register_stable_conditions`
        (``replace=True``: recompiling with a new scope is routine), so
        a subsequent :meth:`run_workload` with ``stable=True`` picks
        them up.  ``prover=True`` additionally discharges symbolic
        proof obligations through :mod:`repro.prover`, arming proved
        state-reading candidates and promoting fully-proved pairs to
        the ``proved`` tier.  ``abduce=True`` (implies ``prover``) runs
        the CEGIS synthesis loop of :mod:`repro.abduction` on top,
        abducing brand-new stable conditions for pairs — and whole
        structures — the projector and footprint machinery cannot
        touch; pairs that gain one carry the ``synthesized`` tier.
        """
        from ..engine import run_stability_compilation
        reports = run_stability_compilation(
            scope or self.scope, names=names, registry=self.registry,
            jobs=self._jobs(jobs), cache=self._cache(cache),
            prover=prover or abduce, abduce=abduce)
        if register:
            for name, report in reports.items():
                self.registry.register_stable_conditions(
                    name, report.stable_conditions(self.spec(name)),
                    replace=True)
        return reports

    def abduce_stable(self, names: Sequence[str] | None = None,
                      scope: Scope | None = None,
                      jobs: int | None = None, cache=None,
                      register: bool = True):
        """:meth:`compile_stable` with the full pipeline armed —
        bounded sweep, symbolic prover, and the abduction loop."""
        return self.compile_stable(names, scope=scope, jobs=jobs,
                                   cache=cache, register=register,
                                   prover=True, abduce=True)

    # -- synthesis -----------------------------------------------------------

    def synthesize(self, name: str, m1: str, m2: str, kind: Kind | str,
                   atoms: Iterable[Any]):
        """Synthesize a sound-and-complete condition over ``atoms``
        (formula texts or pre-parsed terms)."""
        from ..commutativity.synthesis import parse_atoms, synthesize
        spec = self.registry.spec(name)
        atoms = list(atoms)
        if all(isinstance(atom, str) for atom in atoms):
            atoms = parse_atoms(spec, m1, m2, atoms)
        return synthesize(spec, m1, m2, _coerce_kind(kind), atoms,
                          self.scope)

    # -- runtime -------------------------------------------------------------

    def executor(self, name: str, policy: str = "commutativity",
                 seed: int = 0, **kwargs):
        """A speculative executor over the named structure's registered
        concrete implementation."""
        from ..runtime.executor import SpeculativeExecutor
        self.registry.implementation(name)  # fail early with suggestions
        return SpeculativeExecutor(name, policy=policy, seed=seed,
                                   registry=self.registry, **kwargs)

    def run_workload(self, name: str, workload=None, *,
                     policy: str = "commutativity",
                     conflict_mode: str = "abort",
                     workers: int | None = None,
                     shards: int | None = None,
                     adaptive: str | None = None,
                     stable: bool = False,
                     backend=None,
                     max_rounds: int = 200_000, **spec_fields):
        """Generate a deterministic workload for ``name`` and execute it
        speculatively; an :class:`~repro.runtime.executor.ExecutionReport`.

        ``workload`` is a :class:`~repro.workloads.WorkloadSpec`, a
        profile name (``"read-heavy"``, ``"mixed"``, ``"write-heavy"``),
        or ``None``; remaining keyword fields (``distribution=``,
        ``transactions=``, ``seed=``, ...) override spec fields.  The
        generated programs depend only on the workload spec — never on
        ``workers`` or ``shards`` — so serial, multi-worker, and sharded
        runs execute byte-identical transactions.

        ``shards`` partitions the conflict-manager log by interaction
        region (``1`` = the flat-log gatekeeper); ``adaptive`` selects a
        contention controller (``"backoff"``, ``"wait-die"``,
        ``"hybrid"``, or ``None``); ``stable=True`` arms the drift
        guard with the conditions a prior :meth:`compile_stable`
        registered.  Every admission condition is lowered into a
        compiled check at arm time (:mod:`repro.compiled`), with the
        interpreter as the per-check fallback.

        ``backend`` selects where admission decisions come from:
        ``None`` is the in-process path; a
        :class:`~repro.service.client.ServiceBackend` routes every
        decision to a remote admission server — byte-identical
        ``decision_digest()`` either way.
        """
        from ..workloads import ThroughputHarness, resolve_workload
        workload = resolve_workload(workload, **spec_fields)
        self.registry.implementation(name)  # fail early with suggestions
        harness = ThroughputHarness(registry=self.registry,
                                    max_rounds=max_rounds)
        return harness.run_one(name, workload, policy=policy,
                               conflict_mode=conflict_mode,
                               workers=workers, shards=shards,
                               adaptive=adaptive, stable=stable,
                               backend=backend).report

    def throughput_sweep(self, structures: Sequence[str] | None = None,
                         workloads=None, policies=None,
                         conflict_modes: Sequence[str] = ("abort",),
                         workers: int | None = None,
                         shard_counts: Sequence[int] | None = None,
                         adaptive: str | None = None):
        """Sweep (structure x policy x workload x conflict-mode
        [x shard-count]) through the speculative executor; a list of
        :class:`~repro.workloads.WorkloadRun`."""
        from ..runtime.gatekeeper import POLICIES
        from ..workloads import ThroughputHarness
        harness = ThroughputHarness(registry=self.registry,
                                    workers=workers, adaptive=adaptive)
        return harness.sweep(structures=structures, workloads=workloads,
                             policies=(policies if policies is not None
                                       else POLICIES),
                             conflict_modes=conflict_modes,
                             shard_counts=shard_counts)
