"""The ``cold-verify`` workload: the offline pipeline on an empty engine cache.

One pass makes each public offline call per structure or family, in a
fixed order: ``verify_all`` of each builtin and of the RegisterCell demo
(765 + 12 conditions), ``check_inverses`` of each family (8 + 1),
``compile_stable(prover=True)`` of every builtin in :data:`COMPILED`,
then ``abduce_stable`` of RegisterCell.  Every pass gets a fresh, empty
engine cache and runs the engine in-process (``jobs=1``), so nothing is
served from an earlier pass and every engine task is timed on its own.

Passes repeat until ``--seconds`` have passed, at least
:data:`MIN_PASSES` of them, and every time reported is the fastest over
the passes — of each call, or of each engine task.  The pass has no
random input: ``--seed`` is accepted and changes nothing.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.api import Session

from .metrics import (PER_LAYER, STRUCTURES, Result, geomean, peak_rss_mb,
                      percentile, ratio)
from .probes import Tracer

#: The known answers of a full pass: every condition and every inverse
#: verifies.
EXPECTED_CONDITIONS = 777
EXPECTED_INVERSES = 9
#: The builtins whose stability compile is in the pass.  ArrayList's is
#: left out: with the prover it is one call of about 45 s, which no run
#: could repeat.  The runtime workloads still load its output.
COMPILED = ("Accumulator", "ListSet", "HashSet", "AssociationList",
            "HashTable")
#: Passes per run, however long they take.
MIN_PASSES = 3
#: Registry constructions before each pass, which runs on the last;
#: ``setup_s`` is the median of all of a run's.  Spread over the run
#: they average the host's speed over it: five taken back to back
#: spread 0.44 over ten runs.
SETUP_REPEATS = 3
#: ``--smoke`` covers two fast structures instead of all seven.
SMOKE_STRUCTURES = ("Accumulator", DEMO_FAMILY)


@dataclass
class Pass:
    #: Seconds of each public call, in call order.
    call_s: list
    verify: dict
    inverses: list
    #: compile_stable and abduce_stable reports, by structure.
    stability: dict


def build_registry(structures):
    """Registry construction: the builtins plus RegisterCell, with the
    spec and condition catalog of every structure in the pass built."""
    registry = make_demo_registry()
    for name in structures:
        registry.conditions(name)
    return registry


def cold_pass(registry, structures, paths, tracer: Tracer) -> Pass:
    """One pass; each public call is a span of ``tracer``."""
    cache = tempfile.mkdtemp(prefix="engine-", dir=paths.tmp)
    session = Session(registry=registry, jobs=1, cache=cache)
    done = Pass([], {}, [], {})

    def timed(name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return tracer.call(name, fn, *args, **kwargs)
        finally:
            done.call_s.append(time.perf_counter() - start)

    try:
        for name in structures:
            done.verify.update(timed("offline.commutativity",
                                     session.verify_all, [name]))
        for family in dict.fromkeys(registry.family_of(name)
                                    for name in structures):
            done.inverses += timed("offline.inverses",
                                   session.check_inverses, family)
        for name in structures:
            if name in COMPILED:
                done.stability.update(timed(
                    "offline.stability", session.compile_stable, [name],
                    prover=True))
        done.stability.update(timed("offline.abduction",
                                    session.abduce_stable, [DEMO_FAMILY]))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return done


def expected_counts(registry, structures, smoke: bool) -> tuple[int, int]:
    if not smoke:
        return EXPECTED_CONDITIONS, EXPECTED_INVERSES
    families = dict.fromkeys(registry.family_of(name) for name in structures)
    return (sum(len(registry.conditions(name)) for name in structures),
            sum(len(registry.inverses(family)) for family in families))


def gate(passes: list[Pass], expected: tuple[int, int]) \
        -> tuple[bool, int, int]:
    """Every pass must reproduce the known answers; each verdict short
    of them counts as failed."""
    conditions, inverses = expected
    correct, attempted, failed = True, 0, 0
    for done in passes:
        total = sum(r.condition_count for r in done.verify.values())
        verified = sum(r.verified_count for r in done.verify.values())
        inverse_ok = sum(1 for r in done.inverses if r.verified)
        attempted += conditions + inverses
        failed += max(conditions - verified, 0) + max(inverses - inverse_ok, 0)
        if (total, verified, len(done.inverses), inverse_ok) \
                != (conditions, conditions, inverses, inverses):
            correct = False
            print(f"perfbench: FAILED cold-verify: {verified}/{total} "
                  f"conditions (expected {conditions}), "
                  f"{inverse_ok}/{len(done.inverses)} inverses "
                  f"(expected {inverses})", file=sys.stderr)
    return correct, attempted, failed


def _tasks(done: Pass) -> list[tuple[str, float, bool]]:
    """Every engine task of a pass as ``(kind, seconds, cached)``, in
    the order the pass ran them."""
    rows = [(timing.kind, timing.elapsed, timing.cached)
            for report in (*done.verify.values(), *done.stability.values())
            for timing in report.task_timings]
    rows += [("inverse", result.elapsed, result.cached)
             for result in done.inverses]
    return rows


def fastest_tasks(passes: list[Pass]) -> list[tuple[str, float, bool]]:
    """The engine tasks of a pass, each with its fastest seconds over
    the passes.  Passes run the same tasks in the same order; should
    they not, the fastest whole pass's tasks stand in."""
    runs = [_tasks(done) for done in passes]
    shapes = {tuple((kind, cached) for kind, _, cached in rows)
              for rows in runs}
    if len(shapes) > 1:
        return min(runs, key=lambda rows: sum(row[1] for row in rows))
    return [(kind, min(row[1] for row in column), cached)
            for column in zip(*runs)
            for kind, _, cached in column[:1]]


def per_kind(tasks, q: float) -> float:
    """Geometric mean over engine task kinds of each kind's ``q``-th
    percentile task seconds, over the tasks that ran.  Each kind runs in
    its own phase of the pass, so every phase moves the statistic."""
    kinds: dict[str, list[float]] = {}
    for kind, seconds, cached in tasks:
        if not cached:
            kinds.setdefault(kind, []).append(seconds)
    return geomean(percentile(durations, q) for durations in kinds.values())


def end_to_end(passes: list[Pass], setup_s: list[float],
               expected: tuple[int, int]) -> dict:
    verdicts = sum(expected)
    pass_s = sum(min(column)
                 for column in zip(*(done.call_s for done in passes)))
    tasks = fastest_tasks(passes)
    candidates = [candidate for report in passes[-1].stability.values()
                  for pair in report.pairs for candidate in pair.candidates]
    return {
        "committed_ops_per_s": verdicts / pass_s,
        "exec_per_commit": ratio(len(candidates),
                                 sum(1 for c in candidates if c.armed)),
        "rpcs_per_commit": ratio(len(tasks), verdicts),
        "rpc_ms_p50": 1e3 * per_kind(tasks, 50),
        "rpc_ms_p90": 1e3 * per_kind(tasks, 90),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(passes: list[Pass]) -> dict:
    values = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    tasks = fastest_tasks(passes)

    def task_seconds(kind: str) -> float:
        return sum(seconds for k, seconds, cached in tasks
                   if k == kind and not cached)

    last = passes[-1].stability.values()
    values.update({
        "commutativity.verify_s": task_seconds("commutativity"),
        "inverses.verify_s": task_seconds("inverse"),
        "stability.compile_s": task_seconds("stability"),
        "prover.compile_s": task_seconds("symbolic_stability"),
        "abduction.compile_s": task_seconds("abduction"),
        "stability.pairs_proved": sum(r.proved_count for r in last),
        "stability.pairs_fragile": sum(r.fragile_count for r in last),
        "engine.cache_hits": sum(1 for done in passes
                                 for *_, cached in _tasks(done) if cached),
    })
    return values


def run(seed: int, seconds: float, trace: bool, paths,
        smoke: bool = False) -> Result:
    structures = SMOKE_STRUCTURES if smoke else STRUCTURES
    setup_s = []
    tracer = Tracer()
    passes = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
        for _ in range(SETUP_REPEATS):
            # Earlier passes' reports stay alive: collect first, so a
            # build does not pay for their garbage.
            gc.collect()
            start = time.perf_counter()
            registry = build_registry(structures)
            setup_s.append(time.perf_counter() - start)
        passes.append(cold_pass(registry, structures, paths, tracer))
    expected = expected_counts(registry, structures, smoke)
    correct, attempted, failed = gate(passes, expected)
    if trace:
        values = per_layer(passes)
        tracer.write(paths.work / "trace-cold-verify.jsonl")
    else:
        values = end_to_end(passes, setup_s, expected)
    return Result(correct, attempted, failed, values)
