"""The native prover backend: discharge drift-stability obligations by
symbolic-state enumeration with EUF consistency filtering.

The decision procedure extends the symbolic commutativity engine
(:mod:`repro.solver.engine`) with a second, independently-drifted
symbolic state:

- **roots** ``w`` come from the engine's per-family case generators —
  partition enumeration over the mentioned object symbols, symbolic
  membership/binding of the mentioned classes, symbolic size ``N + d``
  (exact for unbounded states; ArrayList lengths are enumerated to the
  scope bound, the repo's documented deviation);
- **drifts** ``d`` are generated per case as every state the runtime
  could present *as observed through the candidate's vocabulary*: for
  sets, every membership assignment of the mentioned classes over an
  unrelated symbolic size ``M``; for maps, every binding choice per
  mentioned key class — absent, any mentioned value, any base value the
  root could have held, the observed result, or a fresh drift value
  (fresh values partitioned among themselves); for the ArrayList, a
  jointly-partitioned second sequence so drift elements may coincide
  with root elements, arguments, or be new.  The verified no-drift
  binding (the state right after ``m1``) is always included;
- each refutation is certified through the EUF solver
  (:mod:`repro.solver.euf`): the case's semantic bindings become ground
  equalities over uninterpreted membership/binding applications, token
  distinctness (the injective-renaming interpretation) becomes
  disequalities, and only closure-consistent cases refute — the
  resulting congruence classes ship inside the countermodel artifact.

A candidate is **proved** when no consistent case both admits it and
fails to commute at the root, and it admitted at least once (a vacuous
certificate arms nothing); **refuted** on the first consistent
countermodel; **unsupported** when its lowering or a symbolic
evaluation step falls outside the decidable fragment (never silently
mis-proved — see the clean-admission contract in
:mod:`repro.prover.obligations`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..commutativity.bounded import Case, commutes
from ..commutativity.conditions import CommutativityCondition, pair_layout
from ..eval.enumeration import Scope
from ..eval.interpreter import EvalContext, EvalError
from ..eval.values import FMap, Record
from ..logic.compile import compile_term
from ..solver.engine import (_obj_symbols, accumulator_cases, map_cases,
                             set_cases)
from ..solver.euf import CongruenceClosure
from ..solver.partition import partitions
from ..solver.symbolic import SymInt, SymMap, SymSet
from ..specs.interface import DataStructureSpec, Operation
from .obligations import (SYMBOLIC_FAMILIES, Obligation, family_regime,
                          lower_pair)


@dataclass
class ProofResult:
    """One candidate's fate under the symbolic prover."""

    candidate: str
    #: ``"proved"`` | ``"refuted"`` | ``"unsupported"``.
    status: str
    admitted: int = 0
    cases: int = 0
    #: ``symbolic/unbounded`` or ``symbolic/bounded-length`` — what the
    #: certificate actually quantifies over.
    regime: str = ""
    reason: str | None = None
    #: JSON-shaped refutation witness (refuted candidates only).
    countermodel: dict | None = None
    #: External-adapter cross-check outcome (see
    #: :func:`repro.prover.backend.discharge_pair`); informational,
    #: never overrides the native verdict.
    corroboration: str | None = None


@dataclass
class PairProof:
    """The prover's verdicts for one pair's candidate set."""

    m1: str
    m2: str
    results: tuple[ProofResult, ...] = ()
    cases: int = 0
    elapsed: float = field(default=0.0, compare=False)

    @property
    def pair_label(self) -> str:
        return f"{self.m1};{self.m2}"

    def result(self, text: str) -> ProofResult | None:
        for result in self.results:
            if result.candidate == text:
                return result
        return None


# ---------------------------------------------------------------------------
# Drifted-state generators
# ---------------------------------------------------------------------------

DriftFn = Callable[[Record, Any], Iterator[Record]]
CaseStream = Iterator[tuple[Record, tuple, tuple, DriftFn]]


def _set_drifts(w: Record) -> Iterator[Record]:
    """Every membership assignment of the root's mentioned classes,
    over an unrelated symbolic size ``M`` — exactly the states a
    drifted set can present to a candidate that observes only the
    mentioned elements."""
    classes = sorted(w["contents"].membership)
    for bits in itertools.product((False, True), repeat=len(classes)):
        yield Record(contents=SymSet(FMap(dict(zip(classes, bits)))),
                     size=SymInt("M", 0))


def _map_drifts(w: Record, mid: Record, r1: Any,
                value_args: tuple) -> Iterator[Record]:
    """Every binding choice per mentioned key class: absent, any value
    the candidate could distinguish (argument values, base values of
    the root or post-``m1`` state, the observed result), or a fresh
    drift value — fresh values partitioned among themselves, the same
    injective-renaming argument that makes the root enumeration exact."""
    kclasses = sorted(w["contents"].tracked)
    values: set[str] = set(w["contents"].binding.values())
    values.update(mid["contents"].binding.values())
    values.update(v for v in value_args if isinstance(v, str))
    if isinstance(r1, str):
        values.add(r1)
    options = ["absent", "dfresh"] + sorted(values)
    for choice in itertools.product(options, repeat=len(kclasses)):
        fresh = tuple(kc for kc, tag in zip(kclasses, choice)
                      if tag == "dfresh")
        for fpart in partitions(fresh):
            binding: dict[str, str] = {}
            for kc, tag in zip(kclasses, choice):
                if tag == "absent":
                    continue
                binding[kc] = (f"g{fpart[kc]}" if tag == "dfresh"
                               else tag)
            yield Record(contents=SymMap(FMap(binding),
                                         frozenset(kclasses)),
                         size=SymInt("M", 0))


def _arraylist_stream(op1: Operation, op2: Operation,
                      max_len: int) -> CaseStream:
    """Jointly-partitioned root/drift sequence pairs.

    Root and drift elements share one partition with the object
    arguments (root symbols first, so a root reappears identically
    across its drift variations), letting drift elements coincide with
    root elements, arguments, or be new — exact for unbounded element
    universes at each bounded length pair.  Index arguments range over
    both sequences' valid positions (the post-``m1`` state can be one
    longer than the root; preconditions filter the rest).
    """
    obj_syms = _obj_symbols(op1, op2)
    for n_w in range(max_len + 1):
        for n_d in range(max_len + 1):
            w_syms = [f"we{j}" for j in range(n_w)]
            d_syms = [f"de{j}" for j in range(n_d)]
            for part in partitions(tuple(w_syms + obj_syms + d_syms)):
                tokens = {sym: f"c{cls}" for sym, cls in part.items()}
                w = Record(elems=tuple(tokens[s] for s in w_syms),
                           size=n_w)
                d = Record(elems=tuple(tokens[s] for s in d_syms),
                           size=n_d)
                index_range = tuple(range(max(n_w, n_d) + 2))

                def domains(op: Operation, suffix: str) -> list[tuple]:
                    out: list[tuple] = []
                    for p in op.params:
                        if p.sort.value == "int":
                            out.append(index_range)
                        else:
                            out.append((tokens[f"{p.name}{suffix}"],))
                    return out

                def drift_fn(mid: Record, r1: Any,
                             d: Record = d) -> Iterator[Record]:
                    return iter((d,))

                for args1 in itertools.product(*domains(op1, "1")):
                    for args2 in itertools.product(*domains(op2, "2")):
                        yield w, args1, args2, drift_fn


def _case_stream(spec: DataStructureSpec, op1: Operation,
                 op2: Operation, scope: Scope) -> CaseStream:
    if spec.name == "Set":
        for w, args1, args2 in set_cases(op1, op2):
            def drift_fn(mid: Record, r1: Any,
                         w: Record = w) -> Iterator[Record]:
                return _set_drifts(w)
            yield w, args1, args2, drift_fn
        return
    if spec.name == "Map":
        for w, args1, args2 in map_cases(op1, op2):
            value_args = tuple(
                v for op, args in ((op1, args1), (op2, args2))
                for p, v in zip(op.params, args) if p.name != "k")

            def drift_fn(mid: Record, r1: Any, w: Record = w,
                         value_args: tuple = value_args) \
                    -> Iterator[Record]:
                return _map_drifts(w, mid, r1, value_args)
            yield w, args1, args2, drift_fn
        return
    if spec.name == "Accumulator":
        for w, args1, args2 in accumulator_cases(op1, op2):
            def drift_fn(mid: Record, r1: Any) -> Iterator[Record]:
                return iter((Record(value=SymInt("M", 0)),))
            yield w, args1, args2, drift_fn
        return
    if spec.name == "ArrayList":
        yield from _arraylist_stream(op1, op2, scope.max_seq_len)
        return
    raise ValueError(f"no symbolic tooling for family {spec.name!r}")


# ---------------------------------------------------------------------------
# EUF certification
# ---------------------------------------------------------------------------

def _euf_certificate(w: Record, mid: Record, d: Record,
                     args1: tuple, args2: tuple,
                     r1: Any) -> tuple[bool, dict]:
    """Check the case's ground theory through the congruence closure.

    The semantic bindings become equalities over uninterpreted
    applications (``mem_w(c0) = true``, ``bind_d(k0) = g0``, ...), the
    injective-renaming interpretation becomes pairwise token
    disequalities.  The generators produce consistent cases by
    construction, so an inconsistency here flags a generator defect and
    the case is discarded rather than refuting; the congruence classes
    are returned for the countermodel artifact either way.
    """
    cc = CongruenceClosure()
    tokens: set[str] = set()

    def note(value: Any) -> None:
        if isinstance(value, str):
            tokens.add(value)

    def bind_state(tag: str, state: Record) -> None:
        contents = state.get("contents")
        if isinstance(contents, SymSet):
            for token, present in contents.membership.items():
                note(token)
                cc.merge((f"mem_{tag}", token),
                         "true" if present else "false")
        elif isinstance(contents, SymMap):
            for key in sorted(contents.tracked):
                note(key)
                if key in contents:
                    value = contents.lookup(key)
                    note(value)
                    cc.merge((f"has_{tag}", key), "true")
                    cc.merge((f"bind_{tag}", key), value)
                else:
                    cc.merge((f"has_{tag}", key), "false")
        elif isinstance(contents, tuple):
            for i, elem in enumerate(contents):
                note(elem)
                cc.merge((f"at_{tag}", i), elem)

    for value in itertools.chain(args1, args2):
        note(value)
    for tag, state in (("w", w), ("mid", mid), ("d", d)):
        bind_state(tag, state)
    if isinstance(r1, str):
        note(r1)
        cc.merge(("r1",), r1)
    elif isinstance(r1, bool):
        cc.merge(("r1",), "true" if r1 else "false")
    for a, b in itertools.combinations(
            sorted(tokens | {"true", "false"}), 2):
        cc.assert_distinct(a, b)
    classes = {repr(rep): sorted(repr(m) for m in members)
               for rep, members in cc.classes().items()}
    return cc.is_consistent(), classes


def _countermodel(spec: DataStructureSpec, cond: CommutativityCondition,
                  text: str, w: Record, mid: Record, d: Record,
                  args1: tuple, args2: tuple, r1: Any,
                  euf_classes: dict) -> dict:
    return {
        "family": spec.name,
        "m1": cond.m1,
        "m2": cond.m2,
        "candidate": text,
        "root": repr(w),
        "after_m1": repr(mid),
        "drift": repr(d),
        "args1": [repr(a) for a in args1],
        "args2": [repr(a) for a in args2],
        "r1": repr(r1),
        "regime": family_regime(spec.name),
        "euf_classes": euf_classes,
    }


# ---------------------------------------------------------------------------
# The prover loop
# ---------------------------------------------------------------------------

def prove_pair(spec: DataStructureSpec, cond: CommutativityCondition,
               candidate_texts: list[str],
               scope: Scope | None = None) -> PairProof:
    """Discharge one pair's candidate obligations natively."""
    start = time.perf_counter()
    scope = scope or Scope()
    op1, op2 = cond.op1, cond.op2
    regime = (family_regime(spec.name)
              if spec.name in SYMBOLIC_FAMILIES + ("ArrayList",) else "")
    obligations = lower_pair(spec, cond, candidate_texts)
    results = {o.text: ProofResult(candidate=o.text, status="unsupported",
                                   regime=regime, reason=o.reason)
               for o in obligations}
    proof = PairProof(m1=cond.m1, m2=cond.m2)
    supported = [o for o in obligations if o.supported]
    if supported:
        ctx = EvalContext(observe=spec.observe)
        # Slot 0 (``s2``) is rebound per drift.
        names = pair_layout(op1, op2, "s2")
        # Live work lists: state-free candidates are evaluated once per
        # case (at the no-drift binding), s2-readers once per drift.
        free_live = []
        drift_live = []
        for o in supported:
            item = (o, compile_term(o.term, names, ctx), results[o.text])
            (drift_live if o.wants_s2 else free_live).append(item)

        def judge(item, env, truth, w, mid, d, args1, args2, r1,
                  live) -> None:
            o, formula, result = item
            if truth and result.admitted:
                return  # a commuting case can neither refute nor
                        # change established non-vacuity
            try:
                value = bool(formula(env))
            except (EvalError, TypeError, KeyError) as exc:
                result.status = "unsupported"
                result.reason = f"symbolic evaluation failed: {exc}"
                live.remove(item)
                return
            if not value:
                return
            result.admitted += 1
            if truth:
                return
            consistent, classes = _euf_certificate(
                w, mid, d, args1, args2, r1)
            if not consistent:
                result.admitted -= 1
                return
            result.status = "refuted"
            result.countermodel = _countermodel(
                spec, cond, o.text, w, mid, d, args1, args2, r1,
                classes)
            live.remove(item)

        commute_cache: dict[tuple, Any] = {}
        for w, args1, args2, drift_fn in _case_stream(spec, op1, op2,
                                                      scope):
            if not free_live and not drift_live:
                break
            if not spec.precondition_holds(op1, w, args1):
                continue
            mid, r1 = op1.semantics(w, args1)
            case_key = (w, args1, args2)
            truth = commute_cache.get(case_key)
            if truth is None:
                if not spec.precondition_holds(op2, mid, args2):
                    truth = "outside"
                else:
                    fin, r2 = op2.semantics(mid, args2)
                    truth = commutes(spec, op1, op2, Case(
                        w, args1, args2, mid, fin, r1, r2))
                commute_cache[case_key] = truth
            if truth == "outside":
                continue
            env = [mid, *args1, *args2]
            if op1.result_sort is not None:
                env.append(r1)
            if free_live:
                proof.cases += 1
                for item in free_live[:]:
                    judge(item, env, truth, w, mid, mid, args1, args2,
                          r1, free_live)
            if drift_live:
                for d in itertools.chain((mid,), drift_fn(mid, r1)):
                    if not spec.precondition_holds(op2, d, args2):
                        continue
                    env[0] = d
                    proof.cases += 1
                    for item in drift_live[:]:
                        judge(item, env, truth, w, mid, d, args1,
                              args2, r1, drift_live)
    for result in results.values():
        if result.status == "unsupported" and result.reason is None:
            # Supported, survived every case: proved unless vacuous.
            if result.admitted:
                result.status = "proved"
            else:
                result.reason = "vacuous (no admitting case)"
        result.cases = proof.cases
    proof.results = tuple(results[o.text] for o in obligations)
    proof.elapsed = time.perf_counter() - start
    return proof
