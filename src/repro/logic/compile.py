"""The formula compiler: terms to closures over slot lists.

Every compiled evaluation of a formula in the repository goes through
this module.  Offline, that is the bounded verifier, the drift-stability
re-verifier, the native prover, the abduction loop and every operation
precondition; online, the gatekeeper's admission checks
(:mod:`repro.compiled.lowering` declares their pair layout).

A caller declares a *slot layout*, the ordered names its environment
binds, and :func:`compile_term` returns a closure over a list holding
one value per name, in that order:

- **slot specialization** — variables lower to list indexing, so an
  evaluation never builds or indexes a dict;
- **constant folding** — subterms with no free slots evaluate once at
  compile time (many catalog conditions are literally ``true``);
- **adaptive disjunct ordering** — a disjunction of total (non-raising)
  disjuncts re-sorts itself by observed hit rate, so the disjunct that
  admits the current traffic is tried first.

Compiled semantics match :func:`repro.eval.interpreter.evaluate` over
the dict that binds the layout's names to the list's values *exactly*,
including which environments raise
:class:`~repro.eval.interpreter.EvalError` and with which message; the
tests compare the two.  So a layout carries every binding the
interpreter's environment would, also the ones the formula never
mentions: quantifier domains are derived
(:meth:`~repro.eval.interpreter.EvalContext.domains_for`) from every
binding in scope.  A term the compiler does not understand raises
:class:`CompileError` at compile time, and the caller interprets it.
Admission caches its closures under
:data:`repro.compiled.lowering.ADMISSION_COMPILER_VERSION`: bump it
with any change here that could alter a compiled result.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

from ..eval.interpreter import EvalContext, EvalError
from ..eval.values import (seq_index_of, seq_insert, seq_last_index_of,
                           seq_remove, seq_update)
from . import terms as t
from .sorts import Sort

#: Re-sort an adaptive disjunction every this-many evaluations.
ADAPTIVE_REORDER_PERIOD = 64

#: The ``const`` of a term that did not fold to a constant.
NOT_CONST = object()

Slots = list  # runtime environment: a plain list indexed by slot
Compiled = Callable[[Slots], Any]


class CompileError(Exception):
    """The compiler cannot handle this term; use the interpreter."""


class Lowered(NamedTuple):
    """A term lowered over a slot layout."""

    #: The closure over ``[*one value per name, *scratch]``.
    fn: Compiled
    #: Quantifier scratch slots the list must end with (any values).
    scratch: int
    #: Proven never to raise :class:`EvalError`.
    total: bool
    #: The folded value, or :data:`NOT_CONST`.
    const: Any


def lower_term(term: t.Term, names: Sequence[str],
               ctx: EvalContext | None = None) -> Lowered:
    """Lower ``term`` over the layout ``names``; for callers that build
    the slot list, scratch slots included, themselves.  A name listed
    twice reads its last slot, as a dict built from the same pairs keeps
    the last binding, and scratch slots follow every listed slot."""
    scope = {name: slot for slot, name in enumerate(names)}
    lowerer = _Lowerer(ctx or EvalContext(), len(names))
    fn, total, const = lowerer.lower(term, scope)
    return Lowered(fn, lowerer.nslots - len(names), total, const)


def compile_term(term: t.Term, names: Sequence[str],
                 ctx: EvalContext | None = None) -> Compiled:
    """Compile ``term`` into a closure over a list holding one value per
    name in ``names``, in order.  The closure appends its quantifier
    scratch slots to a copy of that list on each call, so no
    evaluation state is shared between calls or threads."""
    lowered = lower_term(term, names, ctx)
    if not lowered.scratch:
        return lowered.fn
    fn, pad = lowered.fn, [None] * lowered.scratch
    return lambda env: fn(env + pad)


class _AdaptiveOr:
    """A disjunction over *total* boolean disjuncts that reorders
    itself by observed hit rate.

    Soundness: every disjunct is total (never raises) and boolean, so
    disjunct order cannot change the result — only how fast the common
    case short-circuits.  The counters are racy under free-threaded
    execution; a lost increment merely delays a re-sort, it never
    changes a decision.
    """

    __slots__ = ("parts", "hits", "calls")

    def __init__(self, parts: list[Callable[[Slots], Any]]) -> None:
        self.parts = list(parts)
        self.hits = [0] * len(parts)
        self.calls = 0

    def __call__(self, env: Slots) -> bool:
        self.calls += 1
        if self.calls % ADAPTIVE_REORDER_PERIOD == 0:
            order = sorted(range(len(self.parts)),
                           key=lambda i: -self.hits[i])
            self.parts = [self.parts[i] for i in order]
            self.hits = [self.hits[i] for i in order]
        for i, part in enumerate(self.parts):
            if part(env):
                self.hits[i] += 1
                return True
        return False


def _const_node(value: Any):
    return (lambda env: value), True, value


def _raiser(message: str):
    """A node that deterministically raises: the interpreter would
    raise the same :class:`EvalError` (same message) on every
    evaluation, so fold the raise itself."""
    def fail(env: Slots):
        raise EvalError(message)
    return fail, False, NOT_CONST


class _Lowerer:
    """Recursive lowering with a slot allocator for quantifier
    bindings.  Each ``lower`` call returns ``(fn, total, const)``:

    - ``fn`` — the closure over the slot list;
    - ``total`` — proven never to raise :class:`EvalError` (used to
      justify dropping dead code in short-circuit folds and to gate
      adaptive reordering);
    - ``const`` — the folded value, or ``NOT_CONST``.
    """

    def __init__(self, ctx: EvalContext, nslots: int) -> None:
        self.ctx = ctx
        self.nslots = nslots

    # -- folding helpers ------------------------------------------------------

    def _fold(self, fn, total, children_const: bool):
        """Generic fold: a total node over constant children computes
        once now.  A node that deterministically raises ``EvalError``
        folds to a raiser with the interpreter's message; any other
        compile-time exception leaves the node unfolded (it will raise
        identically at runtime)."""
        if not children_const:
            return fn, total, NOT_CONST
        try:
            value = fn([])
        except EvalError as exc:
            return _raiser(str(exc))
        except Exception:
            return fn, total, NOT_CONST
        return _const_node(value)

    def _lower_all(self, terms, scope):
        return [self.lower(sub, scope) for sub in terms]

    # -- the dispatcher -------------------------------------------------------

    def lower(self, term: t.Term, scope: dict[str, int]):
        if isinstance(term, t.Var):
            try:
                slot = scope[term.name]
            except KeyError:
                # The interpreter raises on every evaluation; preserve
                # the exact message.
                return _raiser(f"unbound variable {term.name!r}")
            return (lambda env: env[slot]), True, NOT_CONST
        if isinstance(term, t.BoolConst):
            return _const_node(term.value)
        if isinstance(term, t.IntConst):
            return _const_node(term.value)
        if isinstance(term, t.ObjConst):
            return _const_node(term.name)
        if isinstance(term, t.Null):
            return _const_node(None)
        if isinstance(term, t.Not):
            fn, total, const = self.lower(term.arg, scope)
            if const is not NOT_CONST:
                return _const_node(not const)
            return (lambda env: not fn(env)), total, NOT_CONST
        if isinstance(term, t.And):
            return self._lower_and(term, scope)
        if isinstance(term, t.Or):
            return self._lower_or(term, scope)
        if isinstance(term, t.Implies):
            lhs, lt, lc = self.lower(term.lhs, scope)
            rhs, rt, rc = self.lower(term.rhs, scope)
            fn = lambda env: (not lhs(env)) or rhs(env)  # noqa: E731
            return self._fold(fn, lt and rt,
                              lc is not NOT_CONST and rc is not NOT_CONST)
        if isinstance(term, t.Iff):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a == b)
        if isinstance(term, t.Ite):
            return self._lower_ite(term, scope)
        if isinstance(term, t.Eq):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a == b)
        if isinstance(term, t.Lt):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a < b)
        if isinstance(term, t.Le):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a <= b)
        if isinstance(term, t.Add):
            nodes = self._lower_all(term.args, scope)
            parts = [fn for fn, _, _ in nodes]
            fn = lambda env: sum(p(env) for p in parts)  # noqa: E731
            return self._fold(fn, all(tt for _, tt, _ in nodes),
                              all(c is not NOT_CONST for _, _, c in nodes))
        if isinstance(term, t.Sub):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a - b)
        if isinstance(term, t.Neg):
            fn, total, const = self.lower(term.arg, scope)
            return self._fold(lambda env: -fn(env), total,
                              const is not NOT_CONST)
        if isinstance(term, t.Member):
            return self._binop(term.elem, term.set_, scope,
                               lambda a, b: a in b)
        if isinstance(term, t.Union):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a | b)
        if isinstance(term, t.Inter):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a & b)
        if isinstance(term, t.Diff):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a - b)
        if isinstance(term, t.FiniteSet):
            nodes = self._lower_all(term.elems, scope)
            parts = [fn for fn, _, _ in nodes]
            fn = lambda env: frozenset(p(env) for p in parts)  # noqa: E731
            return self._fold(fn, all(tt for _, tt, _ in nodes),
                              all(c is not NOT_CONST for _, _, c in nodes))
        if isinstance(term, t.Card):
            fn, total, const = self.lower(term.set_, scope)
            return self._fold(lambda env: len(fn(env)), total,
                              const is not NOT_CONST)
        if isinstance(term, t.SubsetEq):
            return self._binop(term.lhs, term.rhs, scope,
                               lambda a, b: a <= b)
        if isinstance(term, t.MapGet):
            # FMap.lookup is total (missing keys yield None).
            return self._binop(term.map_, term.key, scope,
                               lambda m, k: m.lookup(k))
        if isinstance(term, t.MapHasKey):
            return self._binop(term.map_, term.key, scope,
                               lambda m, k: k in m)
        if isinstance(term, t.MapPut):
            nodes = self._lower_all((term.map_, term.key, term.value),
                                    scope)
            (mf, _, _), (kf, _, _), (vf, _, _) = nodes
            fn = lambda env: mf(env).put(kf(env), vf(env))  # noqa: E731
            return self._fold(fn, all(tt for _, tt, _ in nodes),
                              all(c is not NOT_CONST for _, _, c in nodes))
        if isinstance(term, t.MapRemoveKey):
            return self._binop(term.map_, term.key, scope,
                               lambda m, k: m.remove(k))
        if isinstance(term, t.MapSize):
            fn, total, const = self.lower(term.map_, scope)
            return self._fold(lambda env: len(fn(env)), total,
                              const is not NOT_CONST)
        if isinstance(term, t.MapKeys):
            fn, total, const = self.lower(term.map_, scope)
            return self._fold(lambda env: frozenset(fn(env)), total,
                              const is not NOT_CONST)
        if isinstance(term, t.SeqLen):
            fn, total, const = self.lower(term.seq, scope)
            return self._fold(lambda env: len(fn(env)), total,
                              const is not NOT_CONST)
        if isinstance(term, t.SeqGet):
            return self._lower_indexed(
                term.seq, term.index, None, scope,
                strict=True,
                apply=lambda s, i, _v: s[i],
                message=lambda s, i: (f"sequence index {i} out of range "
                                      f"0..{len(s) - 1}"))
        if isinstance(term, t.SeqInsert):
            return self._lower_indexed(
                term.seq, term.index, term.value, scope,
                strict=False,
                apply=lambda s, i, v: seq_insert(s, i, v),
                message=lambda s, i: (f"insert index {i} out of range "
                                      f"0..{len(s)}"))
        if isinstance(term, t.SeqRemove):
            return self._lower_indexed(
                term.seq, term.index, None, scope,
                strict=True,
                apply=lambda s, i, _v: seq_remove(s, i),
                message=lambda s, i: f"remove index {i} out of range")
        if isinstance(term, t.SeqUpdate):
            return self._lower_indexed(
                term.seq, term.index, term.value, scope,
                strict=True,
                apply=lambda s, i, v: seq_update(s, i, v),
                message=lambda s, i: f"update index {i} out of range")
        if isinstance(term, t.SeqIndexOf):
            return self._binop(term.seq, term.value, scope,
                               seq_index_of)
        if isinstance(term, t.SeqLastIndexOf):
            return self._binop(term.seq, term.value, scope,
                               seq_last_index_of)
        if isinstance(term, t.SeqContains):
            return self._binop(term.seq, term.value, scope,
                               lambda s, v: v in s)
        if isinstance(term, t.Field):
            fn, total, const = self.lower(term.state, scope)
            name = term.name
            return self._fold(lambda env: fn(env)[name], total,
                              const is not NOT_CONST)
        if isinstance(term, t.ObserverCall):
            return self._lower_observer(term, scope)
        if isinstance(term, (t.Forall, t.Exists)):
            return self._lower_quantifier(term, scope)
        raise CompileError(f"cannot lower {type(term).__name__}")

    # -- composite nodes ------------------------------------------------------

    def _binop(self, left: t.Term, right: t.Term, scope, op):
        lhs, lt, lc = self.lower(left, scope)
        rhs, rt, rc = self.lower(right, scope)
        fn = lambda env: op(lhs(env), rhs(env))  # noqa: E731
        return self._fold(fn, lt and rt,
                          lc is not NOT_CONST and rc is not NOT_CONST)

    def _lower_and(self, term: t.And, scope):
        """Short-circuit-aware fold.  ``all()`` stops at the first
        falsy argument, so conjuncts after a constant-false one are
        dead; constant-true conjuncts are no-ops; total conjuncts
        before a constant false evaluate for nothing (no effects, no
        raises) and drop too."""
        kept: list = []
        kept_total = True
        for sub in term.args:
            fn, total, const = self.lower(sub, scope)
            if const is not NOT_CONST:
                if const:
                    continue  # true conjunct: drop
                # Constant false: everything after is dead; only the
                # non-total prefix must still run (it may raise first).
                prefix = [p for p, pt in kept if not pt]
                if not prefix:
                    return _const_node(False)

                def short(env, _prefix=prefix):
                    for p in _prefix:
                        p(env)
                    return False
                return short, False, NOT_CONST
            kept.append((fn, total))
            kept_total = kept_total and total
        if not kept:
            return _const_node(True)
        if len(kept) == 1:
            fn, total = kept[0]
            return (lambda env: bool(fn(env))), total, NOT_CONST
        parts = [p for p, _ in kept]
        return (lambda env: all(p(env) for p in parts)), kept_total, \
            NOT_CONST

    def _lower_or(self, term: t.Or, scope):
        """The dual fold, plus the adaptive hot-disjunct reorder: when
        every surviving disjunct is total, evaluation order cannot
        change the outcome, so the disjunction re-sorts itself by
        observed hit rate."""
        kept: list = []
        kept_total = True
        for sub in term.args:
            fn, total, const = self.lower(sub, scope)
            if const is not NOT_CONST:
                if not const:
                    continue  # false disjunct: drop
                prefix = [p for p, pt in kept if not pt]
                if not prefix:
                    return _const_node(True)

                def short(env, _prefix=prefix):
                    for p in _prefix:
                        p(env)
                    return True
                return short, False, NOT_CONST
            kept.append((fn, total))
            kept_total = kept_total and total
        if not kept:
            return _const_node(False)
        if len(kept) == 1:
            fn, total = kept[0]
            return (lambda env: bool(fn(env))), total, NOT_CONST
        parts = [p for p, _ in kept]
        if kept_total and len(parts) >= 2:
            return _AdaptiveOr(parts), True, NOT_CONST
        return (lambda env: any(p(env) for p in parts)), kept_total, \
            NOT_CONST

    def _lower_ite(self, term: t.Ite, scope):
        cond, ct, cc = self.lower(term.cond, scope)
        if cc is not NOT_CONST:
            # The interpreter evaluates only the chosen branch.
            return self.lower(term.then if cc else term.els, scope)
        then, tt, _tc = self.lower(term.then, scope)
        els, et, _ec = self.lower(term.els, scope)
        fn = lambda env: then(env) if cond(env) else els(env)  # noqa: E731
        return fn, ct and tt and et, NOT_CONST

    def _lower_indexed(self, seq_t, index_t, value_t, scope, *,
                       strict: bool, apply, message):
        """The bounds-checked sequence operations — the only lowered
        nodes that can raise :class:`EvalError` at runtime, with the
        interpreter's exact messages."""
        seq, _st, sc = self.lower(seq_t, scope)
        index, _it, ic = self.lower(index_t, scope)
        if value_t is not None:
            value, _vt, vc = self.lower(value_t, scope)
        else:
            value, vc = (lambda env: None), None
        upper_shift = 0 if strict else 1

        def indexed(env):
            s = seq(env)
            i = index(env)
            if not 0 <= i < len(s) + upper_shift:
                raise EvalError(message(s, i))
            return apply(s, i, value(env))
        return self._fold(indexed, False,
                          sc is not NOT_CONST and ic is not NOT_CONST
                          and vc is not NOT_CONST)

    def _lower_observer(self, term: t.ObserverCall, scope):
        state, _st, _sc = self.lower(term.state, scope)
        nodes = self._lower_all(term.args, scope)
        args = [fn for fn, _, _ in nodes]
        method = term.method
        observe = self.ctx.observe
        if observe is None:
            return _raiser(
                f"observer {method!r} used without a dispatcher")

        def call(env):
            return observe(state(env), method,
                           tuple(a(env) for a in args))
        # Dispatch runs arbitrary spec semantics: never total, never
        # folded (the observer may depend on structure state).
        return call, False, NOT_CONST

    def _lower_quantifier(self, term, scope):
        """Quantifiers reconstruct the interpreter's environment view
        for domain derivation: :meth:`EvalContext.domains_for` is
        called on a dict of *every* visible binding (captured before
        this variable binds, so a shadowed outer value is visited,
        exactly like the interpreter's pre-loop ``domains_for(env)``).
        The bound variable gets a fresh scratch slot, so outer slots
        are never mutated and no save/restore is needed."""
        visible = tuple(scope.items())
        slot = self.nslots
        self.nslots += 1
        inner_scope = dict(scope)
        inner_scope[term.var.name] = slot
        body, body_total, body_const = self.lower(term.body, inner_scope)
        is_int = term.var.var_sort is Sort.INT
        is_forall = isinstance(term, t.Forall)
        ctx = self.ctx
        derived = ctx.int_domain is None or ctx.obj_domain is None
        if body_const is not NOT_CONST and derived:
            # Derived domains are never empty (ints always contain
            # {-1, 0}, objects always contain None), so a constant body
            # decides the quantifier outright.  With explicit domains
            # an empty domain would flip the vacuous case, so no fold.
            return _const_node(bool(body_const))

        def quantified(env):
            ints, objs = ctx.domains_for(
                {name: env[s] for name, s in visible})
            domain = ints if is_int else objs
            for value in domain:
                env[slot] = value
                truth = body(env)
                if is_forall and not truth:
                    return False
                if not is_forall and truth:
                    return True
            return is_forall
        return quantified, body_total, NOT_CONST
