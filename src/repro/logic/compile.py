"""The formula compiler: terms to generated Python functions over slot
lists.

Every compiled evaluation of a formula in the repository goes through
this module.  Offline, that is the bounded verifier, the drift-stability
re-verifier, the native prover, the abduction loop and every operation
precondition; online, the gatekeeper's admission checks
(:mod:`repro.compiled.lowering` declares their pair layout).

A caller declares a *slot layout*, the ordered names its environment
binds, and :func:`compile_term` returns a function over a list holding
one value per name, in that order.  The compiler writes that function's
Python source and compiles it once with :func:`compile`:

- **slot specialization** — a variable reads ``env[i]`` inline, and
  operators and comparisons are inline too, so an evaluation builds no
  dict and ``x1 == x2`` costs no Python call;
- **constant folding** — subterms with no free slots evaluate once at
  compile time (many catalog conditions are literally ``true``), and a
  formula that folds whole needs no source at all;
- **quantifiers** — each is a loop over
  :meth:`~repro.eval.interpreter.EvalContext.domains_for` in a generated
  helper function, its bound variable a local of the helper.

The source takes a value from a term only as the ``repr`` of an ``int``,
``bool``, ``None`` or ``str``; every other value, the observer and the
runtime helpers are bound by name in the function's globals, never
spliced into the text.

Compiled semantics match :func:`repro.eval.interpreter.evaluate` over
the dict that binds the layout's names to the list's values *exactly*,
including which environments raise
:class:`~repro.eval.interpreter.EvalError` and with which message; the
tests compare the two.  So a layout carries every binding the
interpreter's environment would, also the ones the formula never
mentions: quantifier domains are derived from every binding in scope.
A term the compiler does not understand raises :class:`CompileError` at
compile time, and the caller interprets it.  Admission caches its
checks under :data:`repro.compiled.lowering.ADMISSION_COMPILER_VERSION`:
bump it with any change here that could alter a compiled result.

The same lowering writes every operation's executable semantics from
its postcondition (:func:`compile_semantics`), a function over the
state and the arguments rather than a slot list, and the expressions of
a loop a caller writes around them (:func:`lower_body`: the bounded
checker's one function per operation pair), over locals rather than a
slot list, with the state fields they read hoisted into locals of their
own.  A field local is never a binding a quantifier sees, so domains
stay the interpreter's.
"""

from __future__ import annotations

import keyword
import operator
import re
import types
from typing import Any, Callable, NamedTuple, Sequence

from ..eval.interpreter import EvalContext, EvalError
from ..eval.values import (seq_index_of, seq_insert, seq_last_index_of,
                           seq_remove, seq_update)
from . import terms as t
from .free_vars import free_vars
from .sorts import Sort

#: The ``const`` of a term that did not fold to a constant.
NOT_CONST = object()

#: Nesting depth of terms one generated function holds; a deeper
#: subterm moves into a helper function.  A node puts its children at
#: most three brackets deeper, and the tokenizer refuses source nested
#: 200 brackets deep.
MAX_NESTING = 40

Slots = list  # runtime environment: a plain list indexed by slot
Compiled = Callable[[Slots], Any]


class CompileError(Exception):
    """The compiler cannot handle this term; use the interpreter."""


class Lowered(NamedTuple):
    """A term lowered over a slot layout: the source of its function,
    compiled by :meth:`function`."""

    #: Module source defining ``formula(env)``; empty for a constant.
    source: str
    #: The names the source reads: constants, helpers, the observer.
    namespace: dict
    #: Proven never to raise :class:`EvalError`.
    total: bool
    #: The folded value, or :data:`NOT_CONST`.
    const: Any

    def function(self) -> Compiled:
        """Compile the source and return its ``formula``; a folded
        constant needs no compiling."""
        if self.const is not NOT_CONST:
            value = self.const
            return lambda env: value
        namespace = dict(self.namespace)
        exec(compile(self.source, "<formula>", "exec", dont_inherit=True),
             namespace)
        return namespace["formula"]


def lower_term(term: t.Term, names: Sequence[str],
               ctx: EvalContext | None = None) -> Lowered:
    """Lower ``term`` over the layout ``names``, for callers that compile
    it later or never.  A name listed twice reads its last slot, as a
    dict built from the same pairs keeps the last binding."""
    scope = {name: f"env[{slot}]" for slot, name in enumerate(names)}
    gen = _Generator(ctx or EvalContext())
    node = gen.lower(term, scope, 0)
    if node.const is not NOT_CONST:
        return Lowered("", {}, True, node.const)
    source = "".join(gen.helpers) + \
        f"def formula(env):\n    return {gen.text(node)}\n"
    return Lowered(source, gen.namespace, node.total, NOT_CONST)


def compile_term(term: t.Term, names: Sequence[str],
                 ctx: EvalContext | None = None) -> Compiled:
    """Compile ``term`` into a function over a list holding one value
    per name in ``names``, in order.  The function keeps no state
    between calls, so threads may share it."""
    return lower_term(term, names, ctx).function()


class Body(NamedTuple):
    """Terms lowered over locals, for a function its caller writes."""

    #: Each layout name's local; a name listed twice has its last one.
    locals: dict[str, str]
    #: Each term's expression, in order.
    values: list[str]
    #: Layout name -> ``(local, source)`` of each hoisted field read:
    #: the caller binds ``local = source`` after the name's local.
    fields: dict[str, list[tuple[str, str]]]
    #: Helper function sources, to precede the caller's function.
    helpers: str
    #: The names the sources read: constants, helpers, the observer.
    namespace: dict


def lower_body(terms: Sequence[t.Term], names: Sequence[str],
               states: dict[str, Sequence[str]],
               ctx: EvalContext | None = None) -> Body:
    """Lower ``terms`` over one local per name of the layout ``names``,
    for a caller that binds the locals and evaluates the expressions in
    a function of its own.  ``states`` maps a name holding a state to
    the fields every such state has: a read of one of them outside a
    quantifier reads a local (:attr:`Body.fields`), bound once where the
    caller binds the state.  A quantifier sees the layout's names only,
    and inside one a field is read from its state."""
    gen = _Generator(ctx or EvalContext())
    scope = {name: gen.fresh("_v") for name in names}
    gen.hoist = {scope[name]: frozenset(fields)
                 for name, fields in states.items()}
    values = [gen.text(gen.lower(term, scope, 0)) for term in terms]
    return Body(scope, values,
                {name: list(gen.fields[local].values())
                 for name, local in scope.items() if local in gen.fields},
                "".join(gen.helpers), gen.namespace)


# -- runtime helpers ---------------------------------------------------------

def _fail(message: str):
    """A node that deterministically raises: the interpreter raises the
    same :class:`EvalError`, with the same message, on every
    evaluation."""
    raise EvalError(message)


def _get_out_of_range(seq, index):
    raise EvalError(f"sequence index {index} out of range "
                    f"0..{len(seq) - 1}")


def _insert_out_of_range(seq, index):
    raise EvalError(f"insert index {index} out of range 0..{len(seq)}")


def _remove_out_of_range(seq, index):
    raise EvalError(f"remove index {index} out of range")


def _update_out_of_range(seq, index):
    raise EvalError(f"update index {index} out of range")


#: Every generated function's namespace starts with these, by name.
_RUNTIME = {fn.__name__: fn for fn in (
    _fail, _get_out_of_range, _insert_out_of_range, _remove_out_of_range,
    _update_out_of_range, seq_insert, seq_remove, seq_update,
    seq_index_of, seq_last_index_of)}

# -- the node tables ---------------------------------------------------------
#
# Each row: the child fields in the interpreter's evaluation order, the
# source template over the children's sources, and the fold over the
# children's constant values.

_UNARY = {
    t.Not: ("arg", "(not {})", operator.not_),
    t.Neg: ("arg", "(-{})", operator.neg),
    t.Card: ("set_", "len({})", len),
    t.MapSize: ("map_", "len({})", len),
    t.MapKeys: ("map_", "frozenset({})", frozenset),
    t.SeqLen: ("seq", "len({})", len),
}

_BINARY = {
    t.Implies: ("lhs", "rhs", "((not {}) or {})",
                lambda lhs, rhs: (not lhs) or rhs),
    t.Iff: ("lhs", "rhs", "({} == {})", operator.eq),
    t.Eq: ("lhs", "rhs", "({} == {})", operator.eq),
    t.Lt: ("lhs", "rhs", "({} < {})", operator.lt),
    t.Le: ("lhs", "rhs", "({} <= {})", operator.le),
    t.Sub: ("lhs", "rhs", "({} - {})", operator.sub),
    t.Member: ("elem", "set_", "({} in {})", lambda e, s: e in s),
    t.Union: ("lhs", "rhs", "({} | {})", operator.or_),
    t.Inter: ("lhs", "rhs", "({} & {})", operator.and_),
    t.Diff: ("lhs", "rhs", "({} - {})", operator.sub),
    t.SubsetEq: ("lhs", "rhs", "({} <= {})", operator.le),
    # FMap.lookup is total (missing keys yield None).
    t.MapGet: ("map_", "key", "({}).lookup({})", lambda m, k: m.lookup(k)),
    t.MapHasKey: ("key", "map_", "({} in {})", lambda k, m: k in m),
    t.MapRemoveKey: ("map_", "key", "({}).remove({})",
                     lambda m, k: m.remove(k)),
    t.SeqIndexOf: ("seq", "value", "seq_index_of({}, {})", seq_index_of),
    t.SeqLastIndexOf: ("seq", "value", "seq_last_index_of({}, {})",
                       seq_last_index_of),
    t.SeqContains: ("value", "seq", "({} in {})", lambda v, s: v in s),
}


#: The bounds-checked sequence operations, the only nodes that raise
#: :class:`EvalError` at runtime: whether they take a value, the upper
#: bound's comparison, the operation over ``{s}``, ``{i}`` and ``{v}``,
#: the helper raising the interpreter's message, and the operation
#: itself for folding.
_INDEXED = {
    t.SeqGet: (False, "<", "{s}[{i}]", _get_out_of_range,
               lambda seq, index: seq[index]),
    t.SeqInsert: (True, "<=", "seq_insert({s}, {i}, {v})",
                  _insert_out_of_range, seq_insert),
    t.SeqRemove: (False, "<", "seq_remove({s}, {i})",
                  _remove_out_of_range, seq_remove),
    t.SeqUpdate: (True, "<", "seq_update({s}, {i}, {v})",
                  _update_out_of_range, seq_update),
}

#: Sources that read a slot, a local or a bound constant, or spell a
#: literal: evaluating one twice costs nothing and never raises.
_ATOM = re.compile(r"env\[\d+\]|_[kv]\d+|\d+|\(-\d+\)|True|False|None")


class _Node(NamedTuple):
    #: The source, or ``None`` for a constant not yet spelled.
    text: str | None
    #: Proven never to raise :class:`EvalError`.
    total: bool
    #: The folded value, or :data:`NOT_CONST`.
    const: Any


class _Generator:
    """One formula's source generation.  :meth:`lower` returns a
    :class:`_Node` per term; quantifiers add helper functions to
    :attr:`helpers`, and every value the source reads by name lands in
    :attr:`namespace`."""

    def __init__(self, ctx: EvalContext) -> None:
        self.ctx = ctx
        self.namespace: dict[str, Any] = dict(_RUNTIME)
        self.helpers: list[str] = []
        self.count = 0
        #: State local -> the fields whose reads become locals (see
        #: :func:`lower_body`); empty inside a helper function.
        self.hoist: dict[str, frozenset[str]] = {}
        #: State local -> {field: (its local, the read it holds)}.
        self.fields: dict[str, dict[str, tuple[str, str]]] = {}

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def literal(self, value: Any) -> str:
        """Source for ``value``: the ``repr`` of an ``int``, ``bool``,
        ``None`` or ``str``, else a name bound to it."""
        kind = type(value)
        if value is None or kind is bool or kind is str \
                or (kind is int and -2**62 < value < 2**62):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        name = self.fresh("_k")
        self.namespace[name] = value
        return name

    def text(self, node: _Node) -> str:
        return node.text if node.text is not None \
            else self.literal(node.const)

    @staticmethod
    def constant(value: Any) -> _Node:
        return _Node(None, True, value)

    def raiser(self, message: str) -> _Node:
        return _Node(f"_fail({self.literal(message)})", False, NOT_CONST)

    def fold(self, children: list[_Node], op) -> _Node | None:
        """The node over ``children`` folded, when they all are
        constant: to its value, or to a raiser when it raises
        ``EvalError``.  ``None`` when a child is not constant, or when
        any other exception leaves the node to raise identically when
        evaluated."""
        if any(child.const is NOT_CONST for child in children):
            return None
        try:
            return self.constant(op(*(child.const for child in children)))
        except EvalError as exc:
            return self.raiser(str(exc))
        except Exception:
            return None

    def node(self, template: str, children: list[_Node], op) -> _Node:
        """A node over ``children``: folded, or ``template`` over their
        sources."""
        return self.fold(children, op) or _Node(
            template.format(*map(self.text, children)),
            all(child.total for child in children), NOT_CONST)

    # -- the dispatcher -------------------------------------------------------

    def lower(self, term: t.Term, scope: dict[str, str],
              depth: int) -> _Node:
        if depth > MAX_NESTING:
            return self._split(term, scope)
        depth += 1
        kind = type(term)
        if kind not in _KINDS:
            kind = next((k for k in _KINDS if isinstance(term, k)), None)
            if kind is None:
                raise CompileError(f"cannot lower {type(term).__name__}")
        if kind in _UNARY:
            name, template, op = _UNARY[kind]
            return self.node(template,
                             [self.lower(getattr(term, name), scope, depth)],
                             op)
        if kind in _BINARY:
            left, right, template, op = _BINARY[kind]
            return self.node(template,
                             [self.lower(getattr(term, left), scope, depth),
                              self.lower(getattr(term, right), scope,
                                         depth)],
                             op)
        if kind in _INDEXED:
            return self._indexed(term, _INDEXED[kind], scope, depth)
        return _KINDS[kind](self, term, scope, depth)

    # -- atoms ----------------------------------------------------------------

    def _var(self, term: t.Var, scope, depth) -> _Node:
        text = scope.get(term.name)
        if text is None:
            # The interpreter raises on every evaluation; keep its
            # exact message.
            return self.raiser(f"unbound variable {term.name!r}")
        return _Node(text, True, NOT_CONST)

    def _value(self, term, scope, depth) -> _Node:
        return self.constant(term.value)

    def _obj(self, term: t.ObjConst, scope, depth) -> _Node:
        return self.constant(term.name)

    def _null(self, term, scope, depth) -> _Node:
        return self.constant(None)

    # -- connectives ----------------------------------------------------------

    def _junction(self, term, scope, depth) -> _Node:
        """``and``/``or`` with the interpreter's ``all()``/``any()``
        short-circuit.  A constant that decides the junction (``false``
        in a conjunction, ``true`` in a disjunction) ends it: the parts
        before it still run, stopping where they decide, in case one
        raises; a constant that does not decide drops out."""
        conjunction = isinstance(term, t.And)
        joiner = " and " if conjunction else " or "
        kept: list[_Node] = []
        for sub in term.args:
            node = self.lower(sub, scope, depth)
            if node.const is NOT_CONST:
                kept.append(node)
            elif bool(node.const) is not conjunction:
                if all(part.total for part in kept):
                    return self.constant(not conjunction)
                parts = joiner.join(map(self.text, kept))
                decided = not conjunction
                return _Node(f"({decided} if {parts} else {decided})",
                             False, NOT_CONST)
        if not kept:
            return self.constant(conjunction)
        parts = joiner.join(map(self.text, kept))
        return _Node(f"(True if {parts} else False)",
                     all(part.total for part in kept), NOT_CONST)

    def _ite(self, term: t.Ite, scope, depth) -> _Node:
        cond = self.lower(term.cond, scope, depth)
        if cond.const is not NOT_CONST:
            # The interpreter evaluates only the chosen branch.
            return self.lower(term.then if cond.const else term.els,
                              scope, depth)
        then = self.lower(term.then, scope, depth)
        els = self.lower(term.els, scope, depth)
        return _Node(f"({self.text(then)} if {self.text(cond)} "
                     f"else {self.text(els)})",
                     cond.total and then.total and els.total, NOT_CONST)

    # -- n-ary nodes ----------------------------------------------------------

    def _add(self, term: t.Add, scope, depth) -> _Node:
        args = [self.lower(arg, scope, depth) for arg in term.args]
        # The interpreter's ``sum`` starts from 0.
        return self.node("(0" + " + {}" * len(args) + ")", args,
                         lambda *values: sum(values))

    def _finite_set(self, term: t.FiniteSet, scope, depth) -> _Node:
        elems = [self.lower(elem, scope, depth) for elem in term.elems]
        return self.node("frozenset((" + "{}, " * len(elems) + "))",
                         elems, lambda *values: frozenset(values))

    def _map_put(self, term: t.MapPut, scope, depth) -> _Node:
        return self.node("({}).put({}, {})",
                         [self.lower(term.map_, scope, depth),
                          self.lower(term.key, scope, depth),
                          self.lower(term.value, scope, depth)],
                         lambda m, k, v: m.put(k, v))

    def _field(self, term: t.Field, scope, depth) -> _Node:
        state = self.lower(term.state, scope, depth)
        if term.name in self.hoist.get(state.text, ()):
            fields = self.fields.setdefault(state.text, {})
            if term.name not in fields:
                fields[term.name] = (
                    self.fresh("_v"),
                    f"{state.text}[{self.literal(term.name)}]")
            return _Node(fields[term.name][0], True, NOT_CONST)
        return self.node("({})[{}]", [state, self.constant(term.name)],
                         lambda state, name: state[name])

    def _indexed(self, term, row, scope, depth) -> _Node:
        """The bounds check, then the operation, evaluating the sequence,
        the index, the check and (after it) the value in the
        interpreter's order; out of range raises its exact message."""
        has_value, upper, template, failure, apply = row
        children = [self.lower(term.seq, scope, depth),
                    self.lower(term.index, scope, depth)]
        if has_value:
            children.append(self.lower(term.value, scope, depth))

        def checked(seq, index, *value):
            if not 0 <= index < len(seq) + (upper == "<="):
                failure(seq, index)
            return apply(seq, index, *value)
        folded = self.fold(children, checked)
        if folded:
            return folded
        seq, index = map(self.text, children[:2])
        if not _ATOM.fullmatch(seq):
            # The sequence may raise: evaluate it, then the index.
            s, i = self.fresh("_s"), self.fresh("_i")
            check = (f"(({s} := {seq}), ({i} := {index})) "
                     f"and 0 <= {i} {upper} len({s})")
            seq, index = s, i
        elif not _ATOM.fullmatch(index):
            i = self.fresh("_i")
            check = f"0 <= ({i} := {index}) {upper} len({seq})"
            index = i
        else:
            check = f"0 <= {index} {upper} len({seq})"
        value = self.text(children[2]) if has_value else ""
        operation = template.format(s=seq, i=index, v=value)
        return _Node(f"({operation} if {check} else "
                     f"{failure.__name__}({seq}, {index}))",
                     False, NOT_CONST)

    # -- helper functions ---------------------------------------------------

    @staticmethod
    def _params(scope: dict[str, str]) -> str:
        """A helper's parameters: the slot list, when the scope reads
        one, and every other visible name, a local of the enclosing
        function."""
        slots = any(text.startswith("env[") for text in scope.values())
        return ", ".join([*(["env"] if slots else []),
                          *(text for text in scope.values()
                            if not text.startswith("env["))])

    def _helper_body(self, term: t.Term, scope) -> _Node:
        """``term`` lowered for a helper function, which takes only the
        scope's locals: no field read in it is hoisted."""
        hoist, self.hoist = self.hoist, {}
        node = self.lower(term, scope, 0)
        self.hoist = hoist
        return node

    def _split(self, term: t.Term, scope) -> _Node:
        """``term`` in a helper function of its own, which returns its
        value."""
        node = self._helper_body(term, scope)
        if node.text is None:
            return node
        helper, params = self.fresh("_h"), self._params(scope)
        self.helpers.append(
            f"def {helper}({params}):\n    return {node.text}\n")
        return _Node(f"{helper}({params})", node.total, NOT_CONST)

    # -- observers and quantifiers -------------------------------------------

    def _observer(self, term: t.ObserverCall, scope, depth) -> _Node:
        if self.ctx.observe is None:
            return self.raiser(
                f"observer {term.method!r} used without a dispatcher")
        # Dispatch runs arbitrary spec semantics: never total, never
        # folded (the observer may depend on structure state).
        self.namespace["_observe"] = self.ctx.observe
        state = self.text(self.lower(term.state, scope, depth))
        args = [self.text(self.lower(arg, scope, depth))
                for arg in term.args]
        packed = "".join(f"{arg}, " for arg in args)
        return _Node(f"_observe({state}, {self.literal(term.method)}, "
                     f"({packed}))", False, NOT_CONST)

    def _quantifier(self, term, scope, depth) -> _Node:
        """A helper function loops over the domains
        :meth:`EvalContext.domains_for` derives from a dict of *every*
        visible binding, taken before the variable binds (so a shadowed
        outer value is visited, as in the interpreter).  The bound
        variable is a local of the helper, which takes the enclosing
        quantifiers' variables as arguments."""
        var = self.fresh("_v")
        inner = dict(scope)
        inner[term.var.name] = var
        body = self._helper_body(term.body, inner)
        forall = isinstance(term, t.Forall)
        ctx = self.ctx
        if body.const is not NOT_CONST \
                and (ctx.int_domain is None or ctx.obj_domain is None):
            # Derived domains are never empty (ints always contain
            # {-1, 0}, objects always contain None), so a constant body
            # decides the quantifier outright.  With explicit domains
            # an empty domain would flip the vacuous case, so no fold.
            return self.constant(bool(body.const))
        self.namespace["_domains"] = ctx.domains_for
        helper, params = self.fresh("_q"), self._params(scope)
        visible = ", ".join(f"{self.literal(name)}: {text}"
                            for name, text in scope.items())
        domain = 0 if term.var.var_sort is Sort.INT else 1
        test = f"not {self.text(body)}" if forall else self.text(body)
        self.helpers.append(
            f"def {helper}({params}):\n"
            f"    for {var} in _domains({{{visible}}})[{domain}]:\n"
            f"        if {test}:\n"
            f"            return {not forall}\n"
            f"    return {forall}\n")
        return _Node(f"{helper}({params})", body.total, NOT_CONST)


_KINDS: dict[type, Any] = {
    **dict.fromkeys((*_UNARY, *_BINARY, *_INDEXED)),
    t.Var: _Generator._var,
    t.BoolConst: _Generator._value,
    t.IntConst: _Generator._value,
    t.ObjConst: _Generator._obj,
    t.Null: _Generator._null,
    t.And: _Generator._junction,
    t.Or: _Generator._junction,
    t.Ite: _Generator._ite,
    t.Add: _Generator._add,
    t.FiniteSet: _Generator._finite_set,
    t.MapPut: _Generator._map_put,
    t.Field: _Generator._field,
    t.ObserverCall: _Generator._observer,
    t.Forall: _Generator._quantifier,
    t.Exists: _Generator._quantifier,
}


# -- operation semantics ------------------------------------------------------
#
# A postcondition in guarded explicit-update form defines each state
# field and the result as ``x = expr`` over the ``old_`` fields and the
# parameters (a boolean name may be asserted or denied instead), either
# unguarded or once under a guard ``g --> ...`` and once under ``~g``.
# Conjuncts that define nothing, such as ``lookup(contents, k) = v``,
# are implied by the definitions and skipped.

def _conjuncts(term: t.Term):
    if isinstance(term, t.And):
        for arg in term.args:
            yield from _conjuncts(arg)
    else:
        yield term


def _definition(term: t.Term, post_names: frozenset[str]):
    """``(name, rhs)`` when ``term`` defines a post-state name."""
    if isinstance(term, (t.Eq, t.Iff)) and isinstance(term.lhs, t.Var) \
            and term.lhs.name in post_names \
            and free_vars(term.rhs).isdisjoint(post_names):
        return term.lhs.name, term.rhs
    atom = term.arg if isinstance(term, t.Not) else term
    if isinstance(atom, t.Var) and atom.name in post_names \
            and atom.sort is Sort.BOOL:
        return atom.name, t.BoolConst(atom is term)
    return None


def explicit_updates(post: t.Term, fields: Sequence[str],
                     returns: bool) -> dict[str, tuple]:
    """Each field's (and, when ``returns``, the result's) definition in
    ``post``: ``(guard, rhs where it holds, rhs where it does not)``,
    the guard ``None`` when unguarded.  Raises :class:`ValueError`
    naming the first name ``post`` does not define in that form."""
    post_names = frozenset((*fields, "result"))
    found: dict[str, list] = {}
    for conjunct in _conjuncts(post):
        guard, holds, body = None, True, conjunct
        if isinstance(conjunct, t.Implies) \
                and free_vars(conjunct.lhs).isdisjoint(post_names):
            guard, body = conjunct.lhs, conjunct.rhs
            if isinstance(guard, t.Not):
                guard, holds = guard.arg, False
        for part in _conjuncts(body):
            definition = _definition(part, post_names)
            if definition is not None:
                name, rhs = definition
                found.setdefault(name, []).append((guard, holds, rhs))
    updates = {}
    for name in (*fields, *(("result",) if returns else ())):
        entries = found.get(name, [])
        guards = {guard for guard, _, _ in entries}
        if not entries:
            raise ValueError(f"the postcondition does not define {name!r}")
        if None in guards and len(entries) > 1:
            raise ValueError(
                f"the postcondition defines {name!r} more than once")
        if None not in guards and (len(entries) != 2 or len(guards) != 1
                                   or entries[0][1] == entries[1][1]):
            raise ValueError(f"the postcondition defines {name!r} under "
                             f"guards that are not complementary")
        (guard, holds, rhs), (_, _, other) = entries[0], entries[-1]
        updates[name] = (guard, rhs, other) if holds else (guard, other, rhs)
    return updates


def _semantics_body(state, args):
    """A generated semantics function's body until its first call:
    ``_first_call`` is bound in each function's own namespace."""
    return _first_call(state, args)  # noqa: F821


def compile_semantics(post: t.Term, fields: Sequence[str],
                      params: Sequence[str], returns: bool,
                      ctx: EvalContext | None = None) -> Callable:
    """The semantics ``(state, args) -> (state', result)`` that ``post``
    defines (see :func:`explicit_updates`, which checks the form now);
    the result is ``None`` unless ``returns``.

    The function tests each guard once, reads a field of the ``Record``
    ``state`` only where a guard or a changed field needs it, and
    returns ``state`` itself where every field keeps its old value.
    Right-hand sides evaluate as :func:`compile_term` would, so outside
    the precondition a bounds-checked sequence operation raises the
    interpreter's :class:`EvalError`; a quantifier's domains come from
    the parameters and the fields read so far.  The source is written
    when first needed, by the first call or by the function's
    ``generated_source()``; the first call compiles it and swaps the
    compiled body into the function, for every holder."""
    updates = explicit_updates(post, fields, returns)
    namespace: dict[str, Any] = {}
    written: list[str] = []

    def source() -> str:
        if not written:
            text, names = _write_semantics(updates, fields, params,
                                           returns, ctx or EvalContext())
            namespace.update(names)
            written.append(text)
        return written[0]

    def first_call(state, args):
        exec(compile(source(), "<semantics>", "exec", dont_inherit=True),
             namespace)
        function.__code__ = namespace["semantics"].__code__
        return function(state, args)

    namespace["_first_call"] = first_call
    function = types.FunctionType(_semantics_body.__code__, namespace,
                                  "semantics")
    function.generated_source = source
    return function


def _write_semantics(updates: dict[str, tuple], fields: Sequence[str],
                     params: Sequence[str], returns: bool,
                     ctx: EvalContext) -> tuple[str, dict]:
    """The source of :func:`compile_semantics`'s function and the names
    it reads."""
    gen = _Generator(ctx)
    lines = ["def semantics(state, args):"]
    scope = {name: gen.fresh("_v") for name in params}
    if params:
        lines.append(f"    {', '.join(scope.values())}, = args")

    def lower(terms, scope, pad) -> list[str]:
        """The sources of ``terms``, after reading the fields they
        need that ``scope`` lacks."""
        needed = set().union(*map(free_vars, terms))
        for name in fields:
            if f"old_{name}" in needed and f"old_{name}" not in scope:
                scope[f"old_{name}"] = local = gen.fresh("_v")
                lines.append(f"{pad}{local} = state[{gen.literal(name)}]")
        return [gen.text(gen.lower(term, scope, 0)) for term in terms]

    def branch(guards, choice, scope, pad) -> None:
        if guards:
            guard, rest = guards[0], guards[1:]
            (test,) = lower([guard], scope, pad)
            lines.append(f"{pad}if {test}:")
            branch(rest, {**choice, guard: True}, dict(scope), pad + "    ")
            branch(rest, {**choice, guard: False}, scope, pad)
            return
        chosen = {name: then if guard is None or choice[guard] else els
                  for name, (guard, then, els) in updates.items()}
        changed = [name for name in fields
                   if chosen[name] != t.Var(f"old_{name}", chosen[name].sort)]
        texts = lower([chosen[name] for name in changed]
                      + ([chosen["result"]] if returns else []), scope, pad)
        value = texts.pop() if returns else "None"
        if not changed:
            lines.append(f"{pad}return state, {value}")
        elif all(name.isidentifier() and not keyword.iskeyword(name)
                 for name in changed):
            pairs = ", ".join(map("{}={}".format, changed, texts))
            lines.append(f"{pad}return state.replace({pairs}), {value}")
        else:
            pairs = ", ".join(map("{}: {}".format,
                                  map(gen.literal, changed), texts))
            lines.append(f"{pad}return state.replace(**{{{pairs}}}), {value}")

    branch(list(dict.fromkeys(guard for guard, _, _ in updates.values()
                              if guard is not None)), {}, scope, "    ")
    return "".join(gen.helpers) + "\n".join(lines) + "\n", gen.namespace
