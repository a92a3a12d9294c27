"""Recursive-descent parser for the Jahob-flavoured condition syntax.

Grammar (loosest binding first)::

    formula := quantified
    quantified := ('ALL' | 'EX') binder '.' quantified | iff
    iff     := impl ('<->' impl)*
    impl    := disj ('-->' impl)?          (right associative)
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '~' unary | cmp
    cmp     := additive (cmpop additive)?
    cmpop   := '=' | '~=' | '<' | '<=' | '>' | '>=' | ':' | '~:'
    additive:= unary_minus (('+' | '-' | 'Un') unary_minus)*
    postfix := atom ('.' name args? | '[' formula ']')*
    atom    := IDENT | IDENT '(' args ')' | INT | 'true' | 'false'
             | 'null' | '(' formula ')' | '{' args? '}'

The parser is sort-directed: a :class:`~repro.logic.symbols.SymbolTable`
supplies variable sorts, abstract-state fields, and observer signatures,
and STATE-sorted expressions silently coerce to their principal collection
field where a collection is expected (``v : s1`` == ``v : s1.contents``).

Every parse builds one :class:`~repro.logic.terms.Var` per (name, sort),
so the parsed catalog shares its variable leaves.
"""

from __future__ import annotations

import functools

from .lexer import Token, tokenize
from .sorts import Sort, SortError
from .symbols import BUILTIN_FUNCTIONS, SymbolTable
from . import terms as t


class ParseError(ValueError):
    """Raised on malformed input or sort mismatches."""


#: ``_var(name, sort)``: the one Var of every parse, so a parsed
#: catalog's formulas share their leaves rather than each holding its own.
_var = functools.cache(t.Var)


_BUILTIN_NODES = {
    "ins": t.SeqInsert,
    "del_": t.SeqRemove,
    "upd": t.SeqUpdate,
    "idx": t.SeqIndexOf,
    "lidx": t.SeqLastIndexOf,
    "len": t.SeqLen,
    "at": t.SeqGet,
    "has": t.SeqContains,
    "card": t.Card,
    "keys": t.MapKeys,
    "lookup": t.MapGet,
    "haskey": t.MapHasKey,
    "mput": t.MapPut,
    "mdel": t.MapRemoveKey,
    "msize": t.MapSize,
}


class Parser:
    """Parses one formula string against a symbol table."""

    def __init__(self, text: str, symbols: SymbolTable) -> None:
        self._text = text
        self._tokens = tokenize(text)
        self._pos = 0
        self._symbols = symbols

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str) -> Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, got {tok.kind} ({tok.text!r}) at "
                f"position {tok.pos} in {self._text!r}")
        return tok

    def _at(self, kind: str) -> bool:
        return self._peek().kind == kind

    # -- elaboration helpers -----------------------------------------------

    def _coerce(self, term: t.Term, expected: Sort) -> t.Term:
        """Insert principal-field access when a STATE meets a collection."""
        if term.sort is expected:
            return term
        if term.sort is Sort.STATE and self._symbols.principal_field:
            name = self._symbols.principal_field
            fsort = self._symbols.state_fields.get(name)
            if fsort is expected:
                return t.Field(term, name, fsort)
        raise ParseError(
            f"cannot use {term.sort} where {expected} is required "
            f"in {self._text!r}")

    # -- grammar -----------------------------------------------------------

    def parse(self) -> t.Term:
        result = self._formula()
        self._expect("EOF")
        if result.sort is not Sort.BOOL:
            raise ParseError(f"formula has sort {result.sort}, not bool")
        return result

    def parse_term(self) -> t.Term:
        """Parse a single term of any sort (used for argument expressions)."""
        result = self._formula()
        self._expect("EOF")
        return result

    def _formula(self) -> t.Term:
        if self._at("ALL") or self._at("EX"):
            kind = self._next().kind
            name = self._expect("IDENT").text
            var_sort = Sort.INT
            if self._at("DCOLON"):
                self._next()
                ann = self._expect("IDENT").text
                try:
                    var_sort = {"obj": Sort.OBJ, "int": Sort.INT}[ann]
                except KeyError:
                    raise ParseError(f"unknown binder sort {ann!r}") from None
            self._expect("DOT")
            var = _var(name, var_sort)
            saved = self._symbols
            self._symbols = saved.with_vars({name: var_sort})
            try:
                body = self._formula()
            finally:
                self._symbols = saved
            node = t.Forall if kind == "ALL" else t.Exists
            return node(var, body)
        return self._iff()

    def _iff(self) -> t.Term:
        lhs = self._impl()
        while self._at("IFF"):
            self._next()
            rhs = self._impl()
            lhs = t.Iff(lhs, rhs)
        return lhs

    def _impl(self) -> t.Term:
        lhs = self._disj()
        if self._at("ARROW"):
            self._next()
            rhs = self._impl()
            return t.Implies(lhs, rhs)
        return lhs

    def _disj(self) -> t.Term:
        args = [self._conj()]
        while self._at("OR"):
            self._next()
            args.append(self._conj())
        if len(args) == 1:
            return args[0]
        return t.Or(tuple(args))

    def _conj(self) -> t.Term:
        args = [self._unary()]
        while self._at("AND"):
            self._next()
            args.append(self._unary())
        if len(args) == 1:
            return args[0]
        return t.And(tuple(args))

    def _unary(self) -> t.Term:
        if self._at("NOT"):
            self._next()
            arg = self._unary()
            if arg.sort is not Sort.BOOL:
                raise ParseError(f"~ applied to {arg.sort} in {self._text!r}")
            return t.neg(arg)
        return self._cmp()

    def _cmp(self) -> t.Term:
        lhs = self._additive()
        kind = self._peek().kind
        if kind in ("EQ", "NEQ"):
            self._next()
            rhs = self._additive()
            lhs, rhs = self._unify(lhs, rhs)
            node: t.Term = t.Eq(lhs, rhs)
            return t.neg(node) if kind == "NEQ" else node
        if kind in ("LT", "LE", "GT", "GE"):
            self._next()
            rhs = self._additive()
            if kind == "LT":
                return t.Lt(lhs, rhs)
            if kind == "LE":
                return t.Le(lhs, rhs)
            if kind == "GT":
                return t.Lt(rhs, lhs)
            return t.Le(rhs, lhs)
        if kind in ("IN", "NOTIN"):
            self._next()
            rhs = self._coerce(self._additive(), Sort.SET)
            node = t.Member(lhs, rhs)
            return t.neg(node) if kind == "NOTIN" else node
        return lhs

    def _unify(self, lhs: t.Term, rhs: t.Term) -> tuple[t.Term, t.Term]:
        """Coerce STATE operands of ``=`` to their principal collections."""
        if lhs.sort is rhs.sort:
            return lhs, rhs
        if lhs.sort is Sort.STATE:
            return self._coerce(lhs, rhs.sort), rhs
        if rhs.sort is Sort.STATE:
            return lhs, self._coerce(rhs, lhs.sort)
        raise ParseError(
            f"= operands disagree ({lhs.sort} vs {rhs.sort}) "
            f"in {self._text!r}")

    def _additive(self) -> t.Term:
        lhs = self._unary_minus()
        while self._peek().kind in ("PLUS", "MINUS", "UN"):
            op = self._next().kind
            rhs = self._unary_minus()
            if op == "UN":
                lhs = t.Union(self._coerce(lhs, Sort.SET),
                              self._coerce(rhs, Sort.SET))
            elif lhs.sort is Sort.SET or rhs.sort is Sort.SET:
                if op != "MINUS":
                    raise ParseError("sets support only Un and - operators")
                lhs = t.Diff(self._coerce(lhs, Sort.SET),
                             self._coerce(rhs, Sort.SET))
            elif op == "PLUS":
                lhs = t.Add((lhs, rhs))
            else:
                lhs = t.Sub(lhs, rhs)
        return lhs

    def _unary_minus(self) -> t.Term:
        if self._at("MINUS"):
            self._next()
            arg = self._unary_minus()
            if isinstance(arg, t.IntConst):
                return t.IntConst(-arg.value)
            return t.Neg(arg)
        return self._postfix()

    def _postfix(self) -> t.Term:
        term = self._atom()
        while True:
            if self._at("DOT"):
                self._next()
                name = self._expect("IDENT").text
                term = self._member_access(term, name)
            elif self._at("LBRACK"):
                self._next()
                index = self._formula_or_term()
                self._expect("RBRACK")
                term = t.SeqGet(self._coerce(term, Sort.SEQ), index)
            else:
                return term

    def _member_access(self, term: t.Term, name: str) -> t.Term:
        if self._at("LPAREN"):
            self._next()
            args = self._args("RPAREN")
            sig = self._symbols.observers.get(name)
            if sig is None:
                raise ParseError(f"unknown observer {name!r} in {self._text!r}")
            arg_sorts, result = sig
            if len(args) != len(arg_sorts):
                raise ParseError(
                    f"observer {name} takes {len(arg_sorts)} args, "
                    f"got {len(args)}")
            for a, s in zip(args, arg_sorts):
                if a.sort is not s:
                    raise ParseError(
                        f"observer {name} arg sort {a.sort}, expected {s}")
            return t.ObserverCall(term, name, tuple(args), result)
        fsort = self._symbols.state_fields.get(name)
        if fsort is None:
            raise ParseError(f"unknown field {name!r} in {self._text!r}")
        return t.Field(term, name, fsort)

    def _args(self, closer: str) -> tuple[t.Term, ...]:
        args: list[t.Term] = []
        if not self._at(closer):
            args.append(self._formula_or_term())
            while self._at("COMMA"):
                self._next()
                args.append(self._formula_or_term())
        self._expect(closer)
        return tuple(args)

    def _formula_or_term(self) -> t.Term:
        """Parse a sub-expression that may be a formula or a plain term."""
        return self._iff()

    def _atom(self) -> t.Term:
        tok = self._next()
        if tok.kind == "INT":
            return t.IntConst(int(tok.text))
        if tok.kind == "TRUE":
            return t.TRUE
        if tok.kind == "FALSE":
            return t.FALSE
        if tok.kind == "NULL":
            return t.NULL
        if tok.kind == "LPAREN":
            inner = self._formula()
            self._expect("RPAREN")
            return inner
        if tok.kind == "LBRACE":
            elems = self._args("RBRACE")
            return t.FiniteSet(elems)
        if tok.kind == "IDENT":
            if self._at("LPAREN") and tok.text in BUILTIN_FUNCTIONS:
                self._next()
                args = list(self._args("RPAREN"))
                arg_sorts, _ = BUILTIN_FUNCTIONS[tok.text]
                if len(args) != len(arg_sorts):
                    raise ParseError(
                        f"{tok.text} takes {len(arg_sorts)} args, "
                        f"got {len(args)}")
                coerced = [self._coerce(a, s) if a.sort is not s else a
                           for a, s in zip(args, arg_sorts)]
                try:
                    return _BUILTIN_NODES[tok.text](*coerced)
                except SortError as exc:
                    raise ParseError(str(exc)) from exc
            var_sort = self._symbols.vars.get(tok.text)
            if var_sort is None:
                raise ParseError(
                    f"unknown identifier {tok.text!r} in {self._text!r}")
            return _var(tok.text, var_sort)
        raise ParseError(
            f"unexpected token {tok.text!r} at position {tok.pos} "
            f"in {self._text!r}")


def parse_formula(text: str, symbols: SymbolTable) -> t.Term:
    """Parse ``text`` as a boolean formula."""
    return Parser(text, symbols).parse()


def parse_term(text: str, symbols: SymbolTable) -> t.Term:
    """Parse ``text`` as a term of any sort."""
    return Parser(text, symbols).parse_term()
