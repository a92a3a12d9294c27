"""Conflict managers: dynamic commutativity checking (Sections 1, 2.4, 6).

"A system would use such a between condition just before executing the
add(v2) operation to dynamically check if this operation commutes with a
previously executed contains(v1) operation."  The conflict manager
holds, per outstanding (uncommitted) operation, the abstract state
snapshot before it ran and its return value; an incoming operation is
admitted only if the between condition of every (logged op; incoming op)
pair holds.

Conflict-detection policies (the lattice of mechanisms from [29], see
Chapter 6):

- ``"commutativity"``: the verified sound-and-complete between
  conditions — maximal concurrency;
- ``"read-write"``: classical reader/writer conflicts (two operations
  conflict iff they touch the same structure and at least one mutates) —
  sound but far less permissive;
- ``"mutex"``: any two operations conflict — serial execution.

Two concrete managers share the pair-checking machinery:

- :class:`Gatekeeper` — the flat log: one list of outstanding
  operations, scanned in full on every admission.  One shard, one lock.
- :class:`ShardedGatekeeper` — the log partitioned into region shards
  by a per-family :mod:`~repro.runtime.sharding` router.  Each shard
  has its own lock and its own log; an incoming operation is checked
  only against the shards it can interact with, so operations in
  disjoint regions admit concurrently without scanning (or locking) one
  global list.

Every admission counter is declared once, in :data:`COUNTERS`.  Counters
are kept per shard and incremented under that shard's lock, so
concurrent admission never loses an update;
:meth:`ConflictManager.counters` sums them over shards and
:meth:`ConflictManager.shard_stats` surfaces the per-shard breakdown.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..api.errors import UnknownNameError
from ..commutativity.conditions import Kind
from ..compiled.admission import PairPlan, armed
from ..compiled.lowering import SlotMismatch
from ..eval.interpreter import EvalContext, EvalError, evaluate
from ..eval.values import Record
from ..specs import DataStructureSpec
from .sharding import (ShardRouter, VIRTUAL_REGIONS, normalize_route,
                       single_region_router)
from .transaction import resolve_inverse_calls

POLICIES = ("commutativity", "read-write", "mutex")

#: How many EvalError occurrences each shard records in full (the
#: (structure, m1, m2, condition) diagnostic sample; the count is
#: always exact, the sample is a fixed-size ring keeping the *most
#: recent* occurrences — in a long-running admission server the
#: interesting failure is the one happening now, not the one from
#: startup — with every eviction counted in ``eval_errors_dropped``).
EVAL_ERROR_SAMPLE = 5

#: The plans of an incoming operation no between condition names.
_UNPLANNED: dict[str, PairPlan] = {}

#: The admission counters, declared once: name -> what it counts.  Each
#: is a :class:`_Shard` slot, incremented under that shard's lock.
#: Aggregation, reset, :meth:`ConflictManager.shard_stats`, the service's
#: ``stats`` frame, ``/metrics`` and the ``ExecutionReport`` and
#: ``WorkloadRun`` attributes all derive from this table, so a new
#: counter is one entry here plus its increment site.  Counters explain
#: how decisions were reached; none of them changes a decision or enters
#: ``ExecutionReport.decision_digest()``.
COUNTERS: dict[str, str] = {
    "conflict_checks": "Pair checks of an incoming operation against a "
                       "logged operation of another transaction.",
    "conflicts": "Pair checks that found a conflict.",
    "drift_checks": "Pair checks that hit the drift guard: a "
                    "state-referencing condition outside its verified "
                    "environment.",
    "stable_hits": "Drifted pair checks admitted by a compiled "
                   "drift-stable condition of the weakened "
                   "(bounded-sweep) tier.",
    "proved_hits": "Drifted pair checks admitted by a symbolically "
                   "proved drift-stable condition.",
    "synthesized_hits": "Drifted pair checks admitted by an abduced "
                        "drift-stable condition.",
    "drift_fallbacks": "Conservative resolutions (a drifted check no "
                       "stable condition admitted, or an unevaluable "
                       "condition) that consulted the router oracle.",
    "fallback_admits": "Conservative resolutions the router oracle "
                       "admitted as region-disjoint.",
    "undo_refusals": "Would-be admissions refused because the incoming "
                     "operation does not commute with a logged "
                     "operation's pending undo.",
    "compiled_hits": "Condition evaluations decided by a compiled "
                     "function rather than the interpreter fallback.",
    "eval_errors": "Condition evaluations (between or stable path) that "
                   "raised EvalError and resolved conservatively.",
    "eval_errors_dropped": "EvalError diagnostics evicted from the "
                           "bounded per-shard sample rings.",
}


@dataclass(frozen=True)
class LoggedOperation:
    """An executed-but-uncommitted operation."""

    txn_id: int
    op_name: str
    args: tuple[Any, ...]
    result: Any
    #: Abstract state immediately before the operation ran.
    before: Record
    #: Abstract state immediately after the operation ran.
    after: Record


class _Shard:
    """One region of the outstanding-operation log: its entries, its
    lock, a bounded ring of the most recent EvalError diagnostics, and
    one slot per :data:`COUNTERS` entry (all mutated under the lock).

    ``eval_error_sample`` keeps the last :data:`EVAL_ERROR_SAMPLE`
    (pair, condition, message) occurrences, so a bench artifact is
    diagnosable down to the failing condition."""

    __slots__ = ("shard_id", "lock", "log", "eval_error_sample", *COUNTERS)

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.lock = threading.RLock()
        self.eval_error_sample: deque[dict[str, Any]] = \
            deque(maxlen=EVAL_ERROR_SAMPLE)
        self.clear()

    def clear(self) -> None:
        """Empty the log and the sample ring and zero every counter."""
        self.log: list[LoggedOperation] = []
        self.eval_error_sample.clear()
        for name in COUNTERS:
            setattr(self, name, 0)


class ConflictManager:
    """Admission control for operations on one shared data structure.

    The base class owns the shard array, the pair-commutativity check,
    and the log-maintenance protocol; subclasses only decide *routing*
    (:meth:`shards_for`).  Callers that need admission and application
    to be atomic (the threaded executor) hold the relevant shard locks
    across the whole step via :meth:`locked`; the locks are reentrant,
    so the internal locking here composes with that.
    """

    def __init__(self, ds_name: str, policy: str = "commutativity",
                 registry=None, shards: int = 1,
                 stable: bool = False) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if shards < 1 or shards > VIRTUAL_REGIONS \
                or shards & (shards - 1):
            raise ValueError(
                f"shards must be a power of two in "
                f"[1, {VIRTUAL_REGIONS}], got {shards}")
        from ..api import resolve_registry
        registry = resolve_registry(registry)
        self.ds_name = ds_name
        self.registry = registry
        self.spec: DataStructureSpec = registry.spec(ds_name)
        self.policy = policy
        self.num_shards = shards
        self._shards = [_Shard(i) for i in range(shards)]
        #: The family's router doubles as the universal-commutation
        #: oracle inside _pair_commutes (for every manager, flat
        #: included) — see :data:`~repro.runtime.sharding.VIRTUAL_REGIONS`.
        self._family_router: ShardRouter | None = \
            registry.shard_router(ds_name)
        self._virtual_routes: dict[tuple[str, tuple], frozenset[int] | None] = {}
        #: (op, args, before) -> resolved abstract undo calls (see
        #: :meth:`_undo_plan`).
        self._undo_plans: dict[tuple, tuple | None] = {}
        #: txn_id -> shard ids holding at least one of its entries.
        self._touched: dict[int, set[int]] = {}
        #: Whether the drift guard tries the registry's drift-stable
        #: conditions before the conservative router-oracle fallback.
        self.stable = stable
        if stable and not registry.has_stable_conditions(ds_name):
            raise ValueError(
                f"stable=True but no drift-stable conditions are "
                f"registered for {ds_name!r}; run "
                f"Session.compile_stable() (or `python -m repro "
                f"stability`) first")
        self._ctx = EvalContext(observe=self.spec.observe)
        #: Incoming operation -> logged operation -> the pair's
        #: :class:`~repro.compiled.admission.PairPlan`: its catalog
        #: between condition, compiled checks and armed drift-stable
        #: condition, resolved once per registry arming and shared by
        #: every manager of the family.  Only the commutativity policy
        #: evaluates conditions, so only it arms.
        self._pair_plans: dict[str, dict[str, PairPlan]] | None = (
            armed(registry, ds_name, stable)
            if policy == "commutativity" else None)
        #: The undo-commutation memo: the verdict of
        #: :meth:`_undo_commutes` is a pure function of immutable
        #: values (the logged call, its pre-state, the incoming call,
        #: the current state — abstract semantics are deterministic),
        #: and hot-key traffic re-asks the same question constantly.
        #: A Record caches its hash on first use, so keys are cheap.
        #: Benign races on the dict are fine (concurrent shards compute
        #: identical values), same as the virtual-route memo.
        self._undo_memo: dict[tuple, bool] = {}

    # -- routing (subclass hooks) ----------------------------------------------

    def store_regions(self, op_name: str,
                      args: tuple[Any, ...]) -> tuple[int, ...]:
        """The regions a logged ``op_name(args)`` entry is stored in."""
        return (0,)

    def scan_regions(self, op_name: str,
                     args: tuple[Any, ...]) -> tuple[int, ...]:
        """The regions an incoming ``op_name(args)`` admission scans.

        Invariant (what makes skipping sound *and* complete): for every
        pair of operations that do not unconditionally commute, the
        incoming operation's scan regions intersect the logged
        operation's store regions.
        """
        return (0,)

    def shards_for(self, op_name: str,
                   args: tuple[Any, ...]) -> tuple[int, ...]:
        """The regions ``op_name(args)`` can interact with (its scan
        set) — the lock set an atomic admit+apply step must hold."""
        return self.scan_regions(op_name, args)

    def touched(self, txn_id: int) -> tuple[int, ...]:
        """The shards holding outstanding operations of ``txn_id``."""
        return tuple(sorted(self._touched.get(txn_id, ())))

    @contextmanager
    def locked(self, shard_ids: Iterable[int]):
        """Hold the given shard locks, in ascending id order (every
        caller uses the same order, so lock acquisition cannot cycle)."""
        ids = sorted(set(shard_ids))
        for sid in ids:
            self._shards[sid].lock.acquire()
        try:
            yield
        finally:
            for sid in reversed(ids):
                self._shards[sid].lock.release()

    # -- admission ------------------------------------------------------------

    def admits(self, txn_id: int, op_name: str, args: tuple[Any, ...],
               current: Record) -> bool:
        """Whether ``txn_id`` may run ``op_name(args)`` now, given the
        outstanding operations of other transactions."""
        return self.check_many(txn_id, op_name, args, current)[0]

    def check_many(self, txn_id: int, op_name: str,
                   args: tuple[Any, ...], current: Record,
                   shard_ids: Sequence[int] | None = None) \
            -> tuple[bool, int | None]:
        """The batched admission entry point: one call per lock hold
        sweeps the incoming operation against *every* outstanding
        logged pair across the relevant shards — the executor calls it
        exactly once per scheduling step, so per-call work (routing,
        condition lookup, checker dispatch) is amortized over the whole
        pair batch instead of being re-paid per pair.

        Returns ``(admitted, holder)`` where ``holder`` is the id of
        the first conflicting transaction (for wait-die ordering);
        checks only ``shard_ids`` when given (they must equal
        ``shards_for(op_name, args)``).

        An operation logged in several shards (e.g. ``size``) is checked
        once: scanning shards in ascending id order and deduplicating by
        entry identity keeps the counters exact under multi-shard
        routing, so aggregated reports never double- or under-count.
        """
        admitted, holder, _ = self.check_detail(txn_id, op_name, args,
                                                current,
                                                shard_ids=shard_ids)
        return admitted, holder

    def check_detail(self, txn_id: int, op_name: str,
                     args: tuple[Any, ...], current: Record,
                     shard_ids: Sequence[int] | None = None) \
            -> tuple[bool, int | None, int | None]:
        """:meth:`check_many` plus the shard the first conflict was
        found in (``None`` when admitted).  The conflict shard is what
        lets a shard-partitioned cluster merge per-worker verdicts
        back into the single-process first-conflict order: shards are
        scanned ascending, so the globally first conflict is the one
        with the smallest shard id across workers."""
        if shard_ids is None:
            shard_ids = self.shards_for(op_name, args)
        plans = None if self._pair_plans is None \
            else self._pair_plans.get(op_name, _UNPLANNED)
        seen: set[int] = set()
        multi = len(shard_ids) > 1
        for sid in shard_ids:
            shard = self._shards[sid]
            with shard.lock:
                for logged in shard.log:
                    if logged.txn_id == txn_id:
                        continue
                    if multi:
                        if id(logged) in seen:
                            continue
                        seen.add(id(logged))
                    shard.conflict_checks += 1
                    if plans is None:
                        commutes = self._policy_commutes(logged.op_name,
                                                         op_name)
                    else:
                        try:
                            plan = plans[logged.op_name]
                        except KeyError:
                            self._unplanned(logged.op_name, op_name)
                        if plan.reads_true and len(args) == plan.n2 \
                                and len(logged.args) == plan.n1:
                            # The check would return its folded
                            # ``true`` and the undo guard would pass a
                            # read: count the compiled check, skip both.
                            shard.compiled_hits += 1
                            continue
                        commutes = self._pair_commutes(shard, plan, logged,
                                                       args, current)
                    if not commutes:
                        shard.conflicts += 1
                        return False, logged.txn_id, sid
        return True, None, None

    def _virtual_route(self, op_name: str,
                       args: tuple[Any, ...]) -> frozenset[int] | None:
        """The operation's interaction regions at the fixed virtual
        granularity (None = interacts with everything); memoized."""
        key = (op_name, args)
        try:
            return self._virtual_routes[key]
        except KeyError:
            ids = self._family_router(op_name, args, VIRTUAL_REGIONS)
            route = None if ids is None else frozenset(
                normalize_route(ids, VIRTUAL_REGIONS))
            self._virtual_routes[key] = route
            return route

    def _unplanned(self, m1: str, m2: str):
        """A pair without a plan has no between condition in the
        catalog the manager armed from: raise the registry's lookup
        error (an unknown operation or pair)."""
        self.registry.condition(self.ds_name, m1, m2, Kind.BETWEEN)
        raise UnknownNameError(
            f"armed {Kind.BETWEEN} condition for {self.ds_name}",
            f"{m1};{m2}")

    def _policy_commutes(self, m1: str, m2: str) -> bool:
        """The verdict of the policies that evaluate no condition:
        ``mutex`` never admits, ``read-write`` admits two reads."""
        if self.policy == "mutex":
            return False
        operations = self.spec.operations
        return not (operations[m1].mutator or operations[m2].mutator)

    def _pair_env(self, plan: PairPlan, logged: LoggedOperation,
                  args: tuple[Any, ...],
                  current: Record) -> dict[str, Any]:
        """The interpreter's environment for one pair check.  The
        compiled fast path never builds this dict — it is only
        materialized on the interpreted fallback."""
        env: dict[str, Any] = {
            "s1": logged.before, "s2": current,
        }
        for param, value in zip(plan.op1.params, logged.args):
            env[f"{param.name}1"] = value
        for param, value in zip(plan.op2.params, args):
            env[f"{param.name}2"] = value
        if plan.op1.result_sort is not None:
            env["r1"] = logged.result
        return env

    def _note_eval_error(self, shard: _Shard, plan: PairPlan, cond,
                         exc: EvalError, stable_path: bool) -> None:
        """An unevaluable condition used to count silently as a
        conservative fallback with no trace of *which* condition
        failed; keep the exact count and a bounded per-shard sample
        (mutated under the shard's lock, like every other counter) so
        bench regressions are diagnosable from the uploaded artifact."""
        shard.eval_errors += 1
        if len(shard.eval_error_sample) == EVAL_ERROR_SAMPLE:
            shard.eval_errors_dropped += 1  # the ring evicts the oldest
        shard.eval_error_sample.append({
            "structure": self.ds_name, "m1": plan.op1.name,
            "m2": plan.op2.name,
            "condition": (getattr(cond, "dynamic_text", None)
                          or cond.text),
            "error": str(exc), "stable": stable_path,
        })

    def _pair_commutes(self, shard: _Shard, plan: PairPlan,
                       logged: LoggedOperation, args: tuple[Any, ...],
                       current: Record) -> bool:
        if plan.drift_fragile and current != logged.after:
            # Drift guard.  The between conditions are verified in the
            # environment where ``s2`` is the state *immediately after*
            # the logged operation ran; once other operations have
            # executed, that environment is gone, and a condition that
            # mentions abstract state (ArrayList's index arithmetic,
            # the size conditions) may evaluate against stale contents
            # — e.g. a value-coincidence ``add_at;set`` admission that
            # is wrong in the drifted list.  Conditions over arguments
            # and return values only were verified to match the commute
            # relation in *every* enumerated state, so they transfer to
            # any context; state-referencing ones are only trusted in
            # the exact state they were verified for.
            #
            # Before giving up, try the pair's *compiled drift-stable*
            # condition (repro.stability): re-verified with the drifted
            # state quantified over all in-scope intermediates, so a
            # true verdict admits in any environment.  Otherwise the
            # router oracle still admits region-disjoint pairs (they
            # commute in every state); everything else is a
            # conservative conflict — possibly an unnecessary abort,
            # never an unsound admission.
            shard.drift_checks += 1
            if plan.stable is not None and self._stable_holds(
                    shard, plan, logged, args, current):
                if self._undo_guard(shard, plan, logged, args, current):
                    # An *effective* admission, counted by certificate
                    # tier (proved conditions carry an unbounded
                    # symbolic proof, synthesized ones an abduced
                    # candidate; tier never changes the decision).
                    if plan.tier == "proved":
                        shard.proved_hits += 1
                    elif plan.tier == "synthesized":
                        shard.synthesized_hits += 1
                    else:
                        shard.stable_hits += 1
                    return True
                return False
            return self._fallback(shard, plan, logged, args, current)
        # The compiled check decides; it raises EvalError in exactly
        # the cases the interpreter would (same messages), so neither
        # the decision nor the eval_errors sample depends on which one
        # ran.  The interpreter decides a pair the lowerer refused
        # (CompileError at arm time: no check) and a call whose
        # arity drifted from the operation signature (SlotMismatch:
        # the dict env tolerates it by zip truncation).
        checker = plan.between
        try:
            if checker is not None:
                try:
                    holds = checker.check(logged.before, current,
                                          logged.args, logged.result,
                                          args)
                except SlotMismatch:
                    checker = None
                else:
                    shard.compiled_hits += 1
            if checker is None:
                env = self._pair_env(plan, logged, args, current)
                holds = evaluate(plan.cond.dynamic_formula, env, self._ctx)
            if not holds:
                return False
            return self._undo_guard(shard, plan, logged, args, current)
        except EvalError as exc:
            # The condition's vocabulary is partial: e.g. an ArrayList
            # between condition may index the *logged* operation's older
            # snapshot with the incoming operation's argument, which is
            # only guaranteed in-range against the current state.  An
            # unevaluable condition cannot certify commutativity, so
            # fall back to the router oracle, then report a conflict —
            # conservative (possibly an unnecessary abort) but never an
            # unsound admission.
            self._note_eval_error(shard, plan, plan.cond, exc,
                                  stable_path=False)
            return self._fallback(shard, plan, logged, args, current)

    def _fallback(self, shard: _Shard, plan: PairPlan,
                  logged: LoggedOperation, args: tuple[Any, ...],
                  current: Record) -> bool:
        """The conservative path: consult the router oracle, keeping
        the fallback counters exact (mutated under the shard's lock,
        like every other admission counter)."""
        shard.drift_fallbacks += 1
        admitted = self._virtually_disjoint(logged, plan.op2.name, args)
        if not admitted:
            return False
        shard.fallback_admits += 1
        return self._undo_guard(shard, plan, logged, args, current)

    def _undo_guard(self, shard: _Shard, plan: PairPlan,
                    logged: LoggedOperation, args2: tuple[Any, ...],
                    current: Record) -> bool:
        """The inverse side of admission: ``op2`` must also commute
        with the logged operation's *pending undo*.

        The logged operation's transaction may still abort, at which
        point :func:`~repro.runtime.transaction.rollback` applies its
        verified inverse to whatever the structure has become — an
        unchecked mutation as far as the log is concerned.  Without
        this guard a pair can be admitted on a value coincidence (two
        writes of the same value commute; ``add_`` of a present element
        is a no-op) and then be silently clobbered by the restore:
        ``T1: put_(k, x); T2: put_(k, x)`` admits, ``T1`` aborts, and
        the rollback rewrites ``k`` to its old value *under* ``T2``'s
        logically-committed write — a lost update the serial replay
        exposes.  The guard re-runs the inverse calls and ``op2``
        abstractly, in both orders, from the current state, and refuses
        the admission when they disagree (counted per shard, under the
        shard's lock, like every other admission counter).
        """
        if not self._undo_commutes(plan, logged, args2, current):
            shard.undo_refusals += 1
            return False
        return True

    def _undo_commutes(self, plan: PairPlan, logged: LoggedOperation,
                       args2: tuple[Any, ...], current: Record) -> bool:
        op1, op2 = plan.op1, plan.op2
        if not op1.mutator or logged.before == logged.after:
            # Nothing to undo: reads are never rolled back, and
            # Property 3 makes the inverse of an effect-free execution
            # a no-op (it restores the pre-state, which is the post-
            # state already).
            return True
        if self._virtually_disjoint(logged, op2.name, args2):
            # The catalog inverses undo an operation within its own
            # footprint (``remove_at(i1)`` for ``add_at(i1, _)``,
            # ``put(k1, old)`` for ``put_(k1, _)``), so a pair the
            # router separates is separated from the undo too — and
            # skipping the abstract re-execution here keeps the guard
            # off the fast path for region-disjoint traffic.
            return True
        # ``logged.after`` is determined by (op, args, before) —
        # abstract semantics are deterministic — so this key covers
        # every input of the verdict.
        key = (logged.op_name, logged.args, logged.before, op2.name,
               args2, current)
        try:
            return self._undo_memo[key]
        except KeyError:
            pass
        verdict = self._undo_commutes_fresh(logged, op1, op2, args2,
                                            current)
        self._undo_memo[key] = verdict
        return verdict

    def _undo_commutes_fresh(self, logged: LoggedOperation, op1, op2,
                             args2: tuple[Any, ...],
                             current: Record) -> bool:
        """The uncached undo-commutation check (both orders, from
        scratch); see :meth:`_undo_commutes` for the contract."""
        undo_ops = self._undo_plan(logged, op1)
        if undo_ops is None:
            # No registered inverse: an abort could not undo the logged
            # operation at all, so admitting against it proves nothing.
            return False
        if not undo_ops:
            return True  # guard decided the inverse away (no-op undo)
        # Order A: op2 now, the undo later (the actual history shape).
        if not self.spec.precondition_holds(op2, current, args2):
            return False
        mid_a, r2_a = op2.semantics(current, args2)
        fin_a = self._run_abstract(mid_a, undo_ops)
        # Order B: the undo first, op2 after (op2 serialized past it).
        mid_b = self._run_abstract(current, undo_ops)
        if fin_a is None or mid_b is None:
            return False  # some order is undefined: conservative
        if not self.spec.precondition_holds(op2, mid_b, args2):
            return False
        fin_b, r2_b = op2.semantics(mid_b, args2)
        if fin_a != fin_b:
            return False
        if op2.result_sort is not None and r2_a != r2_b:
            return False
        return True

    def _undo_plan(self, logged: LoggedOperation, op1):
        """The abstract inverse calls an abort of ``logged`` would
        apply: ``None`` when no inverse is registered, ``()`` when the
        guard decides the undo away.  Fixed per (operation, arguments,
        pre-state), so memoized — benign races on the dict are fine
        (concurrent shards compute identical values), same as the
        virtual-route memo."""
        key = (logged.op_name, logged.args, logged.before)
        try:
            return self._undo_plans[key]
        except KeyError:
            pass
        base_name = op1.base_name or op1.name
        base = self.spec.operations[base_name]
        try:
            inverse = self.registry.inverse(self.ds_name, base_name)
        except UnknownNameError:
            plan = None
        else:
            # The undo log keeps the *raw* result even for discard
            # variants; recover it by replaying the abstract semantics.
            _, raw_result = base.semantics(logged.before, logged.args)
            plan = tuple(
                (self.spec.operations[name], call_args)
                for name, call_args in resolve_inverse_calls(
                    inverse, base, logged.args, raw_result))
        self._undo_plans[key] = plan
        return plan

    def _run_abstract(self, state: Record | None, seq):
        """Thread a state through abstract semantics; ``None`` when a
        precondition fails along the way."""
        for op, args in seq:
            if not self.spec.precondition_holds(op, state, args):
                return None
            state, _ = op.semantics(state, args)
        return state

    def _stable_holds(self, shard: _Shard, plan: PairPlan,
                      logged: LoggedOperation, args: tuple[Any, ...],
                      current: Record) -> bool:
        """Evaluate a compiled drift-stable condition; unevaluable means
        no certificate (the caller falls through to the oracle) —
        counted and sampled per shard, so the silent fallback is
        diagnosable.  The compiled check decides; the interpreter
        only where the pair did not lower or the call's arity does not
        fit the check (decisions are identical either way)."""
        checker = plan.stable_check
        try:
            if checker is not None:
                try:
                    verdict = checker.check(logged.before, current,
                                            logged.args, logged.result,
                                            args)
                except SlotMismatch:
                    pass  # arity drift: interpret this single check
                else:
                    shard.compiled_hits += 1
                    return bool(verdict)
            env = self._pair_env(plan, logged, args, current)
            return bool(evaluate(plan.stable.dynamic_formula, env,
                                 self._ctx))
        except EvalError as exc:
            self._note_eval_error(shard, plan, plan.stable, exc,
                                  stable_path=True)
            return False

    def _virtually_disjoint(self, logged: LoggedOperation, op_name: str,
                            args: tuple[Any, ...]) -> bool:
        """The universal-commutation oracle behind both conservative
        paths: operations whose routes at the fixed virtual granularity
        are disjoint commute in *every* state (the router soundness
        contract), so they may be admitted even when the condition
        cannot be trusted or evaluated.  Physical shard counts are
        powers of two dividing the virtual granularity, so every pair a
        sharded scan prunes is virtually disjoint too — which is why
        flat and sharded managers decide identically."""
        if self._family_router is None:
            return False
        route1 = self._virtual_route(logged.op_name, logged.args)
        route2 = self._virtual_route(op_name, args)
        return route1 is not None and route2 is not None \
            and not (route1 & route2)

    # -- log maintenance ------------------------------------------------------

    def record(self, entry: LoggedOperation,
               shard_ids: Sequence[int] | None = None) -> tuple[int, ...]:
        """Log an executed operation as outstanding, in every region it
        is stored in; returns the region ids.  An explicit ``shard_ids``
        restricts storage to that slice of the routed set — a cluster
        worker stores only the shards it owns."""
        if shard_ids is None:
            shard_ids = self.store_regions(entry.op_name, entry.args)
        else:
            shard_ids = tuple(shard_ids)
        for sid in shard_ids:
            shard = self._shards[sid]
            with shard.lock:
                shard.log.append(entry)
        self._touched.setdefault(entry.txn_id, set()).update(shard_ids)
        return shard_ids

    def release(self, txn_id: int, reason: str = "commit") -> None:
        """Drop all outstanding operations of ``txn_id``.

        ``reason`` (``"commit"`` or ``"abort"``) never changes the
        decision logic — the log is dropped either way — but lets an
        observing layer (the admission service's metrics endpoint)
        count transaction outcomes without a second RPC.
        """
        for sid in sorted(self._touched.pop(txn_id, ())):
            shard = self._shards[sid]
            with shard.lock:
                shard.log = [e for e in shard.log if e.txn_id != txn_id]

    def reset(self) -> None:
        """Back to an empty log with zeroed counters, keeping the
        expensive admission machinery warm (the armed pair plans, the
        memoized routes and undo verdicts).  Decisions after a reset
        are identical to a freshly constructed manager's — that
        equivalence is what makes server-side domain reuse sound."""
        for shard in self._shards:
            with shard.lock:
                shard.clear()
        self._touched.clear()

    def close(self) -> None:
        """Release backend resources; a no-op for in-process managers
        (remote managers flush their pipelines and close their server
        domain here)."""

    def outstanding(self, txn_id: int | None = None) -> list[LoggedOperation]:
        entries: list[LoggedOperation] = []
        seen: set[int] = set()
        for shard in self._shards:
            with shard.lock:
                for e in shard.log:
                    if id(e) in seen:
                        continue
                    seen.add(id(e))
                    if txn_id is None or e.txn_id == txn_id:
                        entries.append(e)
        return entries

    # -- counters -------------------------------------------------------------

    def eval_error_samples(self) -> list[dict[str, Any]]:
        """Up to :data:`EVAL_ERROR_SAMPLE` recorded EvalError
        occurrences — (structure, m1, m2, condition, error, stable) —
        aggregated across shards in shard order (each shard keeps the
        most recent occurrences; see ``eval_errors_dropped``)."""
        sample: list[dict[str, Any]] = []
        for shard in self._shards:
            with shard.lock:
                sample.extend(shard.eval_error_sample)
            if len(sample) >= EVAL_ERROR_SAMPLE:
                break
        return sample[:EVAL_ERROR_SAMPLE]

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard admission statistics, for contention reporting:
        the shard id, its log depth and every :data:`COUNTERS` entry."""
        return [{"shard": s.shard_id, "outstanding": len(s.log),
                 **{name: getattr(s, name) for name in COUNTERS}}
                for s in self._shards]

    def counters(self) -> dict[str, int]:
        """Every :data:`COUNTERS` entry summed over shards (each
        increment happens under its shard's lock, so the sum never
        loses concurrent updates) — the transport-neutral stats surface
        the service's ``stats`` frame and the executor's report share."""
        return {name: sum(getattr(s, name) for s in self._shards)
                for name in COUNTERS}


class Gatekeeper(ConflictManager):
    """The flat-log conflict manager: one shard, one lock, every
    admission scans the whole outstanding list — exactly the paper's
    gatekeeper sketch, and the deterministic baseline the sharded
    manager is validated against."""

    def __init__(self, ds_name: str, policy: str = "commutativity",
                 registry=None, stable: bool = False) -> None:
        super().__init__(ds_name, policy, registry=registry, shards=1,
                         stable=stable)


class ShardedGatekeeper(ConflictManager):
    """The region-partitioned conflict manager.

    A routed operation stores, scans, and *locks* exactly its own
    shards, so operations in disjoint regions admit and apply truly
    concurrently — no shared lock anywhere on their path.  A
    globally-interacting operation (``size``, ``indexOf``, ...) is
    replicated into every shard: that keeps every routed operation's
    scan self-contained (its own shards already hold every entry it
    could conflict with) at the cost of duplicate storage, and the
    identity-dedup in :meth:`ConflictManager.check_many` keeps counters
    exact when a multi-shard scan meets a replicated entry.

    Routing only partitions under the ``commutativity`` policy: the
    verified between conditions are what justify skipping a pair check
    (a router may only separate unconditionally-commuting operations).
    ``read-write`` and ``mutex`` conflict regardless of arguments, so
    under those policies every operation routes to shard 0 and the
    manager degenerates to the flat log — decisions are identical to
    :class:`Gatekeeper` under *every* policy.
    """

    def __init__(self, ds_name: str, policy: str = "commutativity",
                 registry=None, shards: int = 2,
                 router: ShardRouter | None = None,
                 stable: bool = False) -> None:
        super().__init__(ds_name, policy, registry=registry, shards=shards,
                         stable=stable)
        if router is None:
            router = self.registry.shard_router(ds_name)
        if router is None:
            router = single_region_router
        self.router = router
        # Physical pruning and the virtual oracle must agree on the
        # interaction structure (an explicitly-injected router replaces
        # the family default for both; the single-region fallback never
        # declares any pair disjoint, matching the flat manager's
        # oracle-less behaviour for unrouted custom structures).
        self._family_router = router if router is not single_region_router \
            else None

    def _route(self, op_name: str,
               args: tuple[Any, ...]) -> tuple[int, ...]:
        """The operation's shard set (globally-interacting operations
        touch every shard); non-commutativity policies collapse to
        shard 0."""
        if self.policy != "commutativity" or self.num_shards == 1:
            return (0,)
        return normalize_route(self.router(op_name, args, self.num_shards),
                               self.num_shards)

    def store_regions(self, op_name: str,
                      args: tuple[Any, ...]) -> tuple[int, ...]:
        return self._route(op_name, args)

    def scan_regions(self, op_name: str,
                     args: tuple[Any, ...]) -> tuple[int, ...]:
        return self._route(op_name, args)


def conflict_manager(ds_name: str, policy: str = "commutativity",
                     shards: int = 1, registry=None,
                     router: ShardRouter | None = None,
                     stable: bool = False) -> ConflictManager:
    """The conflict manager for a shard count: the flat
    :class:`Gatekeeper` at ``shards=1`` (byte-for-byte the historical
    behaviour), a :class:`ShardedGatekeeper` above.  ``stable=True``
    arms the drift guard with the registry's compiled drift-stable
    conditions (both managers consult the same compiled set, so flat
    and sharded decisions stay identical).  Every armed condition is
    lowered into a slot-specialized check at arm time
    (:mod:`repro.compiled`)."""
    if shards == 1 and router is None:
        return Gatekeeper(ds_name, policy, registry=registry,
                          stable=stable)
    return ShardedGatekeeper(ds_name, policy, registry=registry,
                             shards=shards, router=router, stable=stable)
