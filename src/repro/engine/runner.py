"""Fan tasks out over worker processes (with a serial fallback).

``jobs=1`` runs every task in-process, deterministically, with the
caller's registry object — no pickling anywhere.  ``jobs>1`` uses a
:class:`concurrent.futures.ProcessPoolExecutor`; tasks are plain data
(see :mod:`.tasks`) and workers re-resolve names against a registry:

- the package default registry is rebuilt on import in every worker, so
  default-registry runs parallelize under any start method (note for
  spawn-only platforms: registrations made into ``DEFAULT_REGISTRY`` at
  runtime rather than at import time are not visible to spawned
  workers — the lookup error propagates cleanly; use ``jobs=1`` or a
  custom registry there);
- a custom registry (whose spec builders may be closures) is handed to
  workers by *fork inheritance*: it cannot be pickled, so on platforms
  without ``fork`` such runs silently fall back to serial execution.

``jobs=None`` honours the ``REPRO_JOBS`` environment variable (the CI
matrix leg sets ``REPRO_JOBS=2`` to exercise this path on every PR);
``jobs=0`` means one worker per CPU.

A run is one :func:`~repro.commutativity.transitions.transition_run`:
its tasks share one transition table per spec, serially for the whole
run and in a pool for the life of each worker, and the tables are
dropped when the run returns.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Iterable, Sequence

from ..commutativity.transitions import start_worker_run, transition_run
from .tasks import TaskOutcome, VerifyTask, execute_task, set_worker_registry

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """An explicit ``jobs``, else ``$REPRO_JOBS``, else 1 (``0`` = all CPUs)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                jobs = 1
        else:
            jobs = 1
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class ParallelRunner:
    """Execute :class:`VerifyTask` shards serially or across processes."""

    def __init__(self, jobs: int | None = None, registry=None) -> None:
        from ..api import resolve_registry
        self.jobs = resolve_jobs(jobs)
        self.registry = resolve_registry(registry)

    def _parallelizable(self, tasks: Sequence[VerifyTask]) -> bool:
        if self.jobs <= 1 or len(tasks) < 2:
            return False
        from ..api import DEFAULT_REGISTRY
        return self.registry is DEFAULT_REGISTRY or _fork_available()

    def run(self, tasks: Iterable[VerifyTask]) -> list[TaskOutcome]:
        """All outcomes, ordered by task index (deterministic)."""
        tasks = list(tasks)
        if not self._parallelizable(tasks):
            with transition_run():
                return [execute_task(task, self.registry) for task in tasks]
        return self._run_pool(tasks)

    def _run_pool(self, tasks: list[VerifyTask]) -> list[TaskOutcome]:
        from ..api import DEFAULT_REGISTRY
        context = (multiprocessing.get_context("fork")
                   if _fork_available() else None)
        # Fork-inherited handoff for custom registries (see module doc).
        set_worker_registry(None if self.registry is DEFAULT_REGISTRY
                            else self.registry)
        try:
            workers = min(self.jobs, len(tasks))
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=context,
                                     initializer=start_worker_run) as pool:
                futures = [pool.submit(execute_task, task) for task in tasks]
                outcomes = [future.result()
                            for future in as_completed(futures)]
        finally:
            set_worker_registry(None)
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes
