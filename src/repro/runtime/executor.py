"""Deterministic speculative executor (the usage scenario of Chapter 1).

Transactions execute operations on a shared concrete linked structure.
Before each operation the conflict manager checks the between
commutativity conditions against every outstanding operation of other
transactions; on conflict the requesting transaction aborts, rolls back
through the verified inverses, and retries.  With ``workers=1`` (the
default) the scheduler interleaves transactions deterministically from a
seed, so every run is reproducible.

With ``workers > 1`` the executor runs one of two threaded modes:

- ``shards=1`` — the batched single-lock mode: worker threads share the
  concrete structure and a lock-protected flat-log gatekeeper, each
  admitting and applying up to ``batch`` consecutive operations of one
  transaction per lock hold.
- ``shards > 1`` — the fine-grained sharded mode: the gatekeeper log is
  partitioned into region shards (see :mod:`~repro.runtime.sharding`),
  each with its own lock.  A worker acquires only the shards its
  operation can interact with (plus the shards its transaction already
  touched, so an abort can always roll back under locks it holds), in
  deterministic ascending order — so operations in disjoint regions
  admit and apply concurrently instead of serializing on one lock.
  The global condition variable is reduced to scheduling bookkeeping
  (blocked transactions, deadlock detection) and is never acquired
  while shard locks are held.

Thread scheduling makes the interleaving nondeterministic, but the
commutativity conditions and inverses make every interleaving
serializable — which the executor still validates: at commit time of
the final transaction, the abstract state must equal the state produced
by replaying the committed transactions serially in commit order, and
every committed operation must have returned what it returns in that
replay.

``adaptive=`` wraps the conflict *response* with a contention
controller (:mod:`~repro.runtime.adaptive`): exponential backoff,
wait-die ordering, or the per-shard hybrid fallback to blocking.

Every scheduler drives the structure through one
:class:`StructureHandle`, which keeps the abstract state by the spec:
the abstraction function runs once when a run starts and once when it
ends, where it must agree with the kept state.  The serial replay runs
in the spec too, from the run's initial abstract state.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..eval.values import Record, encode_value
from ..impls import concrete_method_name, invoke_concrete
from ..specs.interface import PreconditionError
from .adaptive import AdaptiveController, make_controller
from .backend import AdmissionBackend, resolve_backend
from .gatekeeper import COUNTERS, ConflictManager, LoggedOperation
from .sharding import VIRTUAL_REGIONS
from .transaction import Transaction, TxnStatus, rollback

#: Statuses of transactions that still have work to do: ABORTED
#: transactions restart from scratch the next time they are scheduled.
ACTIVE_STATUSES = (TxnStatus.RUNNING, TxnStatus.ABORTED)


class RoundsExhausted(RuntimeError):
    """The scheduling budget (``max_rounds``) ran out before every
    transaction finished.  Raised internally and resolved by
    :meth:`SpeculativeExecutor.run` into a liveness *report* — the
    still-active transactions are rolled back, the committed prefix
    stays serializable, and ``ExecutionReport.rounds_exhausted``
    surfaces the episode — instead of crashing the run (ROADMAP 3b:
    extreme write-heavy hot-key mixes can starve under liberal
    admission; a server must degrade, not die)."""


class RefinementError(RuntimeError):
    """At the end of a run, the structure's abstraction function
    disagreed with the abstract state its spec kept: the concrete
    implementation does not refine its spec."""


@dataclass
class ExecutionReport:
    """Statistics and outcome of one speculative execution."""

    ds_name: str
    policy: str
    conflict_mode: str = "abort"
    workers: int = 1
    shards: int = 1
    adaptive: str | None = None
    stable: bool = False
    commits: int = 0
    aborts: int = 0
    operations: int = 0
    #: Every :data:`~repro.runtime.gatekeeper.COUNTERS` entry, summed
    #: over the manager's shards; each also reads as an attribute
    #: (``report.conflict_checks``).  How decisions were reached, never
    #: what they were: outside :meth:`decision_digest`.
    counters: dict[str, int] = field(default_factory=dict)
    #: A bounded diagnostic sample of the EvalErrors behind
    #: ``eval_errors``: (structure, m1, m2, condition, error, stable)
    #: dicts.
    eval_error_sample: list = field(default_factory=list)
    #: Which admission backend decided the run ("local" in-process,
    #: "service" over the wire); never decision-changing.
    backend: str = "local"
    #: 1 when the run hit ``max_rounds`` and was quenched — the
    #: committed prefix is kept (and still replay-validated), every
    #: still-active transaction is rolled back (ROADMAP 3b liveness).
    rounds_exhausted: int = 0
    #: Round-trip seconds of each admission RPC (service backend only;
    #: empty for in-process runs) — the client half of the service
    #: latency story.
    admission_latencies: list = field(default_factory=list)
    wall_seconds: float = 0.0
    commit_order: list[int] = field(default_factory=list)
    #: Per-transaction abort counts and final statuses (txn_id keyed),
    #: so post-run inspection can distinguish ever-aborted transactions.
    txn_aborts: dict[int, int] = field(default_factory=dict)
    txn_statuses: dict[int, TxnStatus] = field(default_factory=dict)
    #: Per-shard admission statistics (one dict per shard: shard id,
    #: log depth and every counter), from the conflict manager.
    shard_stats: list[dict[str, int]] = field(default_factory=list)
    #: The abstraction function applied to the structure after the run.
    final_state: Record | None = None
    #: The spec's serial replay of the committed transactions in commit
    #: order; ``None`` when a replayed operation's precondition fails.
    serial_state: Record | None = None
    #: The results the committed operations returned, in commit order,
    #: and the results the same operations return in the serial replay.
    committed_results: list = field(default_factory=list)
    serial_results: list = field(default_factory=list)

    def __getattr__(self, name: str) -> int:
        # Only reached when normal lookup fails: a counter name reads
        # from ``counters`` (0 before the report has run).
        if name in COUNTERS:
            return self.counters.get(name, 0)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def serializable(self) -> bool:
        """Whether the execution matched its serial replay: the same
        final state, and every committed operation returned what it
        returns in the replay.  ``False`` until both states are
        populated by a run — an un-run report must never read as
        vacuously serializable."""
        if self.final_state is None or self.serial_state is None:
            return False
        return self.final_state == self.serial_state \
            and self.committed_results == self.serial_results

    @property
    def conflict_rate(self) -> float:
        """Fraction of admission checks that found a conflict."""
        if not self.conflict_checks:
            return 0.0
        return self.conflicts / self.conflict_checks

    @property
    def ops_per_second(self) -> float:
        """Executed-operation throughput (committed and speculative)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.operations / self.wall_seconds

    #: Operations of committed transactions (set by :meth:`run`).
    committed_operations: int = 0

    @property
    def committed_ops_per_second(self) -> float:
        """Committed-operation throughput: retried (speculative) work
        does not count, so this is the honest wall-clock metric for
        comparing configurations that abort different amounts."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.committed_operations / self.wall_seconds

    @property
    def ever_aborted(self) -> list[int]:
        """IDs of transactions that aborted at least once."""
        return [txn_id for txn_id, count in sorted(self.txn_aborts.items())
                if count > 0]

    @property
    def admission_rpcs(self) -> int:
        """Admission round-trips the service backend made (0 locally)."""
        return len(self.admission_latencies)

    def admission_latency_ms(self, q: float) -> float:
        """The ``q``-th percentile admission RPC latency in
        milliseconds (nearest-rank; 0.0 when the run was in-process)."""
        if not self.admission_latencies:
            return 0.0
        # Imported here: repro.reporting imports this module.
        from ..reporting.tables import percentile
        return percentile(self.admission_latencies, q) * 1000.0

    def summary(self) -> str:
        return (f"{self.ds_name}/{self.policy}: {self.commits} commits, "
                f"{self.aborts} aborts, {self.operations} ops, "
                f"{self.conflicts}/{self.conflict_checks} conflicts, "
                f"serializable={self.serializable}")

    def decision_digest(self) -> str:
        """A stable hash of everything the admission *decisions*
        determined: commits, aborts, operation counts, commit order,
        per-transaction outcomes, and both final states.

        Deliberately excludes how the decisions were reached — check
        counts (flat and sharded managers scan different volumes),
        ``compiled_hits``, wall time — so the digest is the equality
        the invariants demand: flat == sharded, local == served, and
        compiled == interpreter fallback must produce byte-identical
        digests for the same (structure, workload, policy, seed) at
        ``workers=1``.
        States are hashed in their canonical encoding
        (:func:`~repro.eval.values.encode_value`), not their ``repr``,
        so the digest does not depend on the process's hash seed.
        """
        from ..engine.fingerprint import stable_hash
        return stable_hash({
            "ds_name": self.ds_name,
            "policy": self.policy,
            "conflict_mode": self.conflict_mode,
            "commits": self.commits,
            "aborts": self.aborts,
            "operations": self.operations,
            "committed_operations": self.committed_operations,
            "commit_order": self.commit_order,
            "txn_aborts": sorted(self.txn_aborts.items()),
            "txn_statuses": sorted(
                (txn_id, status.name)
                for txn_id, status in self.txn_statuses.items()),
            "final_state": encode_value(self.final_state),
            "serial_state": encode_value(self.serial_state),
        })


class StructureHandle:
    """The shared concrete structure as the schedulers drive it, with
    its abstract state kept by the spec.

    The executor makes every mutation of the structure through
    :meth:`apply` and :meth:`undo`, and the implementation is verified
    to refine its spec, so the handle never needs the abstraction
    function between the two calls :meth:`__init__` and
    :meth:`materialize` make.  :meth:`apply` advances the state by the
    operation's abstract semantics, :meth:`undo` through the inverse
    calls :func:`rollback` applied.  A ``mutator=False`` operation
    leaves the state unchanged (the spec contract rollback and
    :meth:`Transaction.record` already rely on), so a read logs
    ``after`` as the very object it logged as ``before``.  Not
    thread-safe: the threaded schedulers use it under the lock that
    guards the structure.
    """

    __slots__ = ("impl", "family", "registry", "_operations", "_state")

    def __init__(self, impl: Any, family: str, registry) -> None:
        self.impl = impl
        self.family = family
        self.registry = registry
        self._operations = registry.spec(family).operations
        self._state: Record = impl.abstract_state()

    def state(self) -> Record:
        """The current abstract state, as the spec keeps it."""
        return self._state

    def apply(self, op: Any, args: tuple[Any, ...]) -> tuple[Any, Any]:
        """Execute ``op(args)``; returns :func:`invoke_concrete`'s
        ``(raw, visible)`` results."""
        results = invoke_concrete(self.impl, op, args)
        if op.mutator:
            self._state = op.semantics(self._state, args)[0]
        return results

    def undo(self, undo_log: list) -> None:
        """Roll ``undo_log`` back through the verified inverses."""
        state = self._state
        for op_name, args in rollback(self.impl, self.family, undo_log,
                                      registry=self.registry):
            state = self._operations[op_name].semantics(state, args)[0]
        self._state = state

    def materialize(self) -> Record:
        """Run the abstraction function on the structure; raises
        :class:`RefinementError` when it disagrees with the kept
        state."""
        actual = self.impl.abstract_state()
        if actual != self._state:
            raise RefinementError(
                f"{self.family}: the implementation's abstract state "
                f"drifted from the one its spec kept; the implementation "
                f"does not refine its spec")
        return actual


class SpeculativeExecutor:
    """Runs transactions speculatively over one shared structure."""

    def __init__(self, ds_name: str, policy: str = "commutativity",
                 seed: int = 0, max_rounds: int = 10000,
                 conflict_mode: str = "abort", registry=None,
                 workers: int = 1, batch: int = 1, shards: int = 1,
                 adaptive: str | None = None,
                 stable: bool = False,
                 backend: AdmissionBackend | None = None) -> None:
        if conflict_mode not in ("abort", "block"):
            raise ValueError(f"unknown conflict mode {conflict_mode!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        backend = resolve_backend(backend, registry)
        if workers > 1 and not backend.supports_threads:
            raise ValueError(
                f"backend {backend.kind!r} cannot share its admission "
                f"manager across threads; run workers=1 per process and "
                f"scale with more client processes")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if shards < 1 or shards > VIRTUAL_REGIONS \
                or shards & (shards - 1):
            raise ValueError(
                f"shards must be a power of two in "
                f"[1, {VIRTUAL_REGIONS}], got {shards}")
        if adaptive == "none":
            adaptive = None
        make_controller(adaptive)  # validate the name eagerly
        from ..api import resolve_registry
        registry = resolve_registry(registry)
        self.ds_name = ds_name
        self.registry = registry
        #: Where admission decisions come from (local or service);
        #: decision identity across backends is the service invariant.
        self.backend = backend
        self.spec = registry.spec(ds_name)
        self.policy = policy
        self.seed = seed
        self.max_rounds = max_rounds
        #: "abort" rolls the requester back immediately; "block" lets it
        #: wait for the conflicting transaction, aborting only to break
        #: a deadlock (the waits-for cycle fallback of real systems).
        self.conflict_mode = conflict_mode
        self.workers = workers
        self.batch = batch
        self.shards = shards
        self.adaptive = adaptive
        #: Arm the drift guard with compiled drift-stable conditions
        #: (requires a prior Session.compile_stable / CLI `stability`).
        self.stable = stable

    def run(self, programs: list[list[tuple[str, tuple[Any, ...]]]],
            setup: list[tuple[str, tuple[Any, ...]]] | None = None) \
            -> ExecutionReport:
        """Execute the transaction ``programs`` to completion.

        ``setup`` is an optional load-phase program: applied to the
        fresh structure before speculation starts, outside any
        transaction — never logged, never rolled back, and excluded
        from the timed window and the operation counts.
        """
        impl = self.registry.new_instance(self.ds_name)
        # The load phase calls each concrete method bound once per run;
        # its results are dropped, so discard variants need no care.
        methods: dict[str, Any] = {}
        for op_name, args in (setup or ()):
            method = methods.get(op_name)
            if method is None:
                method = methods[op_name] = getattr(
                    impl,
                    concrete_method_name(self.spec.operations[op_name]))
            method(*args)
        structure = StructureHandle(impl, self.ds_name, self.registry)
        initial_state = structure.state()
        start = time.perf_counter()
        manager = self.backend.conflict_manager(self.ds_name,
                                                policy=self.policy,
                                                shards=self.shards,
                                                stable=self.stable)
        transactions = [Transaction(i, list(ops))
                        for i, ops in enumerate(programs)]
        report = ExecutionReport(ds_name=self.ds_name, policy=self.policy,
                                 conflict_mode=self.conflict_mode,
                                 workers=self.workers, shards=self.shards,
                                 adaptive=self.adaptive,
                                 stable=self.stable,
                                 backend=self.backend.kind)
        try:
            try:
                if self.workers == 1 or len(transactions) <= 1:
                    self._run_serial(transactions, structure, manager,
                                     report)
                elif self.shards > 1:
                    self._run_threaded_sharded(transactions, structure,
                                               manager, report)
                else:
                    self._run_threaded(transactions, structure, manager,
                                       report)
            except RoundsExhausted:
                self._quench(transactions, structure, manager, report)
            # Throughput covers execution only; the refinement check and
            # the serial replay below are diagnostics, not work.
            report.wall_seconds = time.perf_counter() - start
            report.counters = manager.counters()
            report.eval_error_sample = manager.eval_error_samples()
            report.admission_latencies = list(
                getattr(manager, "admission_latencies", ()))
            report.shard_stats = manager.shard_stats()
        finally:
            manager.close()
        report.txn_aborts = {t.txn_id: t.aborts for t in transactions}
        report.txn_statuses = {t.txn_id: t.status for t in transactions}
        report.committed_operations = sum(
            len(programs[txn_id]) for txn_id in report.commit_order)
        report.committed_results = [
            result for txn_id in report.commit_order
            for result in transactions[txn_id].results]
        report.final_state = structure.materialize()
        report.serial_state, report.serial_results = self._serial_replay(
            programs, report.commit_order, initial_state)
        return report

    # -- deterministic serial scheduler --------------------------------------

    def _run_serial(self, transactions: list[Transaction],
                    structure: StructureHandle,
                    manager: ConflictManager,
                    report: ExecutionReport) -> None:
        rng = random.Random(self.seed)
        controller = make_controller(self.adaptive, seed=self.seed)
        rounds = 0
        blocked: set[int] = set()
        while any(t.status in ACTIVE_STATUSES for t in transactions):
            rounds += 1
            if rounds > self.max_rounds:
                raise RoundsExhausted(
                    f"scheduling budget exhausted after "
                    f"{self.max_rounds} rounds")
            candidates = [t for t in transactions
                          if t.status in ACTIVE_STATUSES
                          and t.txn_id not in blocked]
            if controller is not None:
                runnable = [t for t in candidates
                            if not controller.deferred(t, rounds)]
                if candidates and not runnable:
                    continue  # everyone is backing off: let rounds tick
            else:
                runnable = candidates
            if not runnable:
                self._break_deadlock(transactions, blocked, structure,
                                     manager, report)
                continue
            self._step(rng.choice(runnable), structure, manager, report,
                       blocked, controller=controller, now=rounds)

    # -- batched multi-worker scheduler ---------------------------------------

    def _run_threaded(self, transactions: list[Transaction],
                      structure: StructureHandle,
                      manager: ConflictManager,
                      report: ExecutionReport) -> None:
        """Thread workers over the lock-protected shared state.

        One condition variable guards the structure, the conflict
        manager, and every transaction; workers hold it for up to
        ``batch`` operations of one of their transactions, wait on it
        while all their transactions are blocked, and are notified on
        every commit, abort, or deadlock break.
        """
        cond = threading.Condition()
        blocked: set[int] = set()
        errors: list[BaseException] = []
        controller = make_controller(self.adaptive, seed=self.seed,
                                     wall_clock=True)

        def attempt(txn: Transaction) -> None:
            # Runs with ``cond`` held: the whole batch is one lock hold.
            progressed = False
            for _ in range(self.batch):
                if not self._step(txn, structure, manager, report, blocked,
                                  controller=controller,
                                  now=time.monotonic()):
                    break
                progressed = True
                if txn.status is not TxnStatus.RUNNING:
                    break  # committed
            if progressed:
                cond.notify_all()

        self._run_workers(transactions, structure, manager, report, cond,
                          blocked, errors, controller, attempt,
                          step_inside_cond=True)

    # -- fine-grained sharded scheduler ----------------------------------------

    def _run_threaded_sharded(self, transactions: list[Transaction],
                              structure: StructureHandle,
                              manager: ConflictManager,
                              report: ExecutionReport) -> None:
        """Per-shard lock acquisition in deterministic (ascending) shard
        order; the global condition variable only coordinates blocked
        transactions and deadlock breaks.

        Lock order is ``cond > shard locks (ascending) > state lock``:
        the deadlock breaker acquires shard locks *under* ``cond`` (its
        victims are provably quiescent — a transaction being stepped is
        never in ``blocked``, and the breaker only fires when every
        active transaction is), while the step path acquires ``cond``
        only *after* releasing its shard locks, so no cycle can form.
        """
        cond = threading.Condition()
        #: Innermost lock: the concrete structure and report counters.
        state_lock = threading.Lock()
        blocked: set[int] = set()
        errors: list[BaseException] = []
        controller = make_controller(self.adaptive, seed=self.seed,
                                     wall_clock=True)

        def attempt(txn: Transaction) -> None:
            # Runs outside ``cond``: admission and application only
            # hold the shards the operation (and its transaction's
            # history) can interact with.
            self._step_sharded(txn, structure, manager, report, blocked,
                               cond, state_lock, controller)

        self._run_workers(transactions, structure, manager, report, cond,
                          blocked, errors, controller, attempt,
                          step_inside_cond=False)

    def _run_workers(self, transactions: list[Transaction],
                     structure: StructureHandle,
                     manager: ConflictManager, report: ExecutionReport,
                     cond: threading.Condition, blocked: set[int],
                     errors: list[BaseException],
                     controller: AdaptiveController | None,
                     attempt, step_inside_cond: bool) -> None:
        """The scheduling loop shared by both threaded modes: pick a
        runnable owned transaction under ``cond``, detect global
        deadlock, and hand the transaction to ``attempt`` — with
        ``cond`` still held (flat batched mode) or after releasing it
        (fine-grained sharded mode)."""
        budget = [self.max_rounds * self.workers]

        def drive(wid: int) -> None:
            rng = random.Random(f"{self.seed}:{wid}")
            mine = transactions[wid::self.workers]
            while True:
                with cond:
                    if errors:
                        return
                    active = [t for t in mine
                              if t.status in ACTIVE_STATUSES]
                    if not active:
                        cond.notify_all()
                        return
                    runnable = [t for t in active
                                if t.txn_id not in blocked]
                    if controller is not None:
                        runnable = [t for t in runnable
                                    if not controller.deferred(
                                        t, time.monotonic())]
                    if not runnable:
                        globally_active = [
                            t for t in transactions
                            if t.status in ACTIVE_STATUSES]
                        if all(t.txn_id in blocked
                               for t in globally_active):
                            self._spend_budget(budget)
                            self._break_deadlock(transactions, blocked,
                                                 structure, manager,
                                                 report)
                            cond.notify_all()
                        else:
                            # Another worker's transaction can still run;
                            # wake on its commit/abort (timeout is a
                            # liveness belt-and-braces only).  Idle waits
                            # spend no convergence budget: only step
                            # attempts and deadlock breaks do, so a slow
                            # but progressing peer never fails the run.
                            cond.wait(timeout=0.01)
                        continue
                    self._spend_budget(budget)
                    txn = rng.choice(runnable)
                    if step_inside_cond:
                        attempt(txn)
                        continue
                attempt(txn)

        def worker(wid: int) -> None:
            try:
                drive(wid)
            except BaseException as exc:  # propagate to the caller
                with cond:
                    errors.append(exc)
                    cond.notify_all()

        threads = [threading.Thread(target=worker, args=(wid,),
                                    name=f"repro-exec-{wid}")
                   for wid in range(min(self.workers,
                                        len(transactions)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    @staticmethod
    def _spend_budget(budget: list[int]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise RoundsExhausted("scheduling budget exhausted")

    # -- one scheduling step ---------------------------------------------------

    def _step(self, txn: Transaction, structure: StructureHandle,
              manager: ConflictManager, report: ExecutionReport,
              blocked: set[int],
              controller: AdaptiveController | None = None,
              now: float = 0.0) -> bool:
        """Advance ``txn`` by one operation (or commit it if finished).

        Returns True when the transaction made progress, False when it
        hit a conflict (and was aborted or blocked per the conflict
        mode and the adaptive controller).
        """
        if txn.status is TxnStatus.ABORTED:
            txn.restart()
        if txn.finished:
            txn.status = TxnStatus.COMMITTED
            manager.release(txn.txn_id, reason="commit")
            report.commits += 1
            report.commit_order.append(txn.txn_id)
            if controller is not None:
                controller.on_commit(txn)
            blocked.clear()  # waiters may be admissible now
            return True
        op_name, args = txn.current_op()
        op = self.spec.operations[op_name]
        before = structure.state()
        shard_ids = manager.shards_for(op_name, args)
        admitted, holder = manager.check_many(txn.txn_id, op_name, args,
                                              before,
                                              shard_ids=shard_ids)
        if controller is not None:
            controller.on_outcome(shard_ids, not admitted)
        if not admitted:
            action = self.conflict_mode
            if controller is not None:
                action = controller.on_conflict(txn, holder, shard_ids,
                                                action)
            if action == "block":
                blocked.add(txn.txn_id)
            else:
                self._abort(txn, structure, manager, report)
                if controller is not None:
                    controller.on_abort(txn, now)
                    # The abort released this transaction's outstanding
                    # operations, so a blocked waiter's conflict partner
                    # may be gone: wake them all (a spurious wake just
                    # re-blocks).  Without this, adaptive modes that mix
                    # block and abort responses can livelock — the abort
                    # churn keeps the scheduler busy, the deadlock
                    # breaker never fires, and blocked transactions
                    # starve.  Pure modes never mix the two responses,
                    # so their behaviour is unchanged.
                    blocked.clear()
            return False
        # Execute through the canonical concrete dispatch; keep the raw
        # return value for the undo log even when the client discards it
        # (the paper: "any system that applies such inverse operations
        # must therefore store the return value").
        raw_result, visible = structure.apply(op, args)
        after = structure.state()
        manager.record(LoggedOperation(
            txn_id=txn.txn_id, op_name=op_name, args=args,
            result=visible, before=before, after=after))
        txn.record(op, args, raw_result, visible)
        report.operations += 1
        return True

    def _step_sharded(self, txn: Transaction, structure: StructureHandle,
                      manager: ConflictManager, report: ExecutionReport,
                      blocked: set[int], cond: threading.Condition,
                      state_lock: threading.Lock,
                      controller: AdaptiveController | None) -> bool:
        """One step of the fine-grained threaded mode.

        Admission, application, and logging happen while holding exactly
        the shard locks the operation can interact with, plus every
        shard the transaction already touched (so a conflict can roll
        the whole transaction back without acquiring further locks).
        ``cond`` is only taken after the shard locks are released.
        """
        if txn.status is TxnStatus.ABORTED:
            txn.restart()
        if txn.finished:
            with manager.locked(manager.touched(txn.txn_id)):
                manager.release(txn.txn_id, reason="commit")
            txn.status = TxnStatus.COMMITTED
            with cond:
                report.commits += 1
                report.commit_order.append(txn.txn_id)
                if controller is not None:
                    controller.on_commit(txn)
                blocked.clear()  # waiters may be admissible now
                cond.notify_all()
            return True
        op_name, args = txn.current_op()
        op = self.spec.operations[op_name]
        op_shards = manager.shards_for(op_name, args)
        lockset = set(op_shards).union(manager.touched(txn.txn_id))
        outcome = "block"
        holder: int | None = None
        with manager.locked(lockset):
            with state_lock:
                before = structure.state()
            admitted, holder = manager.check_many(
                txn.txn_id, op_name, args, before, shard_ids=op_shards)
            if controller is not None:
                controller.on_outcome(op_shards, not admitted)
            if admitted:
                with state_lock:
                    raw_result, visible = structure.apply(op, args)
                    after = structure.state()
                    report.operations += 1
                manager.record(LoggedOperation(
                    txn_id=txn.txn_id, op_name=op_name, args=args,
                    result=visible, before=before, after=after))
                txn.record(op, args, raw_result, visible)
                outcome = "admitted"
            else:
                action = self.conflict_mode
                if controller is not None:
                    action = controller.on_conflict(txn, holder,
                                                    op_shards, action)
                if action == "abort":
                    # The lockset covers every shard this transaction
                    # logged into, so the rollback and release happen
                    # atomically w.r.t. any interacting admission.
                    with state_lock:
                        structure.undo(txn.undo_log)
                    manager.release(txn.txn_id, reason="abort")
                    txn.mark_aborted()
                    outcome = "abort"
        # cond is never acquired while shard locks are held (lock order).
        if outcome == "abort":
            with cond:
                report.aborts += 1
                if controller is not None:
                    controller.on_abort(txn, time.monotonic())
                    # As in _step: the released log may unblock waiters;
                    # only adaptive modes mix abort and block responses.
                    blocked.clear()
                cond.notify_all()
        elif outcome == "block":
            with cond:
                blocked.add(txn.txn_id)
        return outcome == "admitted"

    def _quench(self, transactions: list[Transaction],
                structure: StructureHandle, manager: ConflictManager,
                report: ExecutionReport) -> None:
        """Resolve a :class:`RoundsExhausted` episode into a report:
        roll back every transaction that still has speculative effects,
        so the concrete structure holds exactly the committed prefix —
        which the serial replay then validates as usual."""
        for txn in transactions:
            if txn.status is TxnStatus.RUNNING:
                self._abort(txn, structure, manager, report)
        report.rounds_exhausted = 1

    def _break_deadlock(self, transactions: list[Transaction],
                        blocked: set[int], structure: StructureHandle,
                        manager: ConflictManager,
                        report: ExecutionReport) -> Transaction:
        """Every active transaction is blocked: break the deadlock by
        keeping the most-advanced transaction as the sole survivor
        (lowest txn_id on ties) and aborting the rest.  With no other
        holders left, the survivor's admission checks succeed trivially,
        so it runs to commit — guaranteeing global progress on every
        deadlock episode.  Returns the survivor."""
        active = [t for t in transactions if t.status in ACTIVE_STATUSES]
        survivor = max(active, key=lambda t: (t.next_op, -t.txn_id))
        for txn in active:
            if txn is not survivor and txn.next_op > 0:
                self._abort(txn, structure, manager, report)
        blocked.clear()
        blocked.update(t.txn_id for t in active if t is not survivor)
        return survivor

    def _abort(self, txn: Transaction, structure: StructureHandle,
               manager: ConflictManager,
               report: ExecutionReport) -> None:
        """Roll back a transaction's speculative effects; it retries from
        scratch the next time the scheduler picks it."""
        structure.undo(txn.undo_log)
        manager.release(txn.txn_id, reason="abort")
        txn.mark_aborted()
        report.aborts += 1

    def _serial_replay(self, programs: list[list[tuple[str, tuple]]],
                       order: list[int], state: Record) \
            -> tuple[Record | None, list]:
        """Replay the committed transactions through the spec, serially
        in commit order, from ``state``: the final state and every
        operation's result.  The state is ``None`` once an operation's
        precondition fails; no serial execution explains the run."""
        results = []
        for txn_id in order:
            for op_name, args in programs[txn_id]:
                try:
                    state, result = self.spec.execute(
                        self.spec.operations[op_name], state, args)
                except PreconditionError:
                    return None, results
                results.append(result)
        return state, results
