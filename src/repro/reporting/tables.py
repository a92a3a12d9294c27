"""Render the paper's evaluation tables (Tables 5.1-5.10) from live
verification runs.

Each ``table_5_XX`` function returns the rows the paper reports; the
benchmark harness prints them and EXPERIMENTS.md records paper-vs-
measured deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..commutativity.conditions import Kind
from ..commutativity.verifier import VerificationReport, verify_all
from ..eval.enumeration import Scope
from ..proof.hints import command_count_table


def _registry(registry):
    from ..api import resolve_registry
    return resolve_registry(registry)


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    border = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(border)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def condition_table(family: str, kind: Kind,
                    pairs: list[tuple[str, str]] | None = None,
                    registry=None) -> str:
    """A Tables 5.1-5.7 style condition listing."""
    rows = []
    for cond in _registry(registry).conditions(family):
        if cond.kind is not kind:
            continue
        if pairs is not None and (cond.m1, cond.m2) not in pairs:
            continue
        dynamic = cond.dynamic_text or cond.text
        rows.append([f"{cond.m1}(..)", f"{cond.m2}(..)", cond.text, dynamic])
    headers = ["first op", "second op",
               f"{kind} condition (abstract)", "dynamic check"]
    return _format_table(headers, rows)


# -- Tables 5.1-5.7 -----------------------------------------------------------

def table_5_01() -> str:
    """Accumulator before/between/after conditions."""
    sections = []
    for kind in (Kind.BEFORE, Kind.BETWEEN, Kind.AFTER):
        sections.append(f"[{kind}]")
        sections.append(condition_table("Accumulator", kind))
    return "\n".join(sections)


_SET_PAIRS = [(m1, m2)
              for m1 in ("add_", "contains", "remove_")
              for m2 in ("add_", "contains", "remove_")]
_MAP_PAIRS = [(m1, m2)
              for m1 in ("get", "put_", "remove_")
              for m2 in ("get", "put_", "remove_")]
_ARRAY_PAIRS = [(m1, m2)
                for m1 in ("add_at", "indexOf", "remove_at")
                for m2 in ("add_at", "indexOf", "remove_at")]


def table_5_02() -> str:
    """Before conditions on ListSet and HashSet (paper's selection)."""
    return condition_table("Set", Kind.BEFORE, _SET_PAIRS)


def table_5_03() -> str:
    """Between conditions on ListSet and HashSet."""
    return condition_table("Set", Kind.BETWEEN, _SET_PAIRS)


def table_5_04() -> str:
    """Before conditions on AssociationList and HashTable."""
    return condition_table("Map", Kind.BEFORE, _MAP_PAIRS)


def table_5_05() -> str:
    """After conditions on AssociationList and HashTable."""
    return condition_table("Map", Kind.AFTER, _MAP_PAIRS)


def table_5_06() -> str:
    """Between conditions on ArrayList (paper's row/column selection)."""
    return condition_table("ArrayList", Kind.BETWEEN, _ARRAY_PAIRS)


def table_5_07() -> str:
    """After conditions on ArrayList."""
    return condition_table("ArrayList", Kind.AFTER, _ARRAY_PAIRS)


# -- Table 5.8: verification times ---------------------------------------------

#: The paper's Jahob verification times, in seconds (Table 5.8).
PAPER_TIMES = {
    "Accumulator": 0.8,
    "AssociationList": 95.0,
    "HashSet": 44.0,
    "HashTable": 200.0,
    "ListSet": 40.0,
    "ArrayList": 738.0,
}


def table_5_08(scope: Scope | None = None, backend: str = "symbolic",
               registry=None, jobs: int | None = None, cache=False) \
        -> tuple[str, dict[str, VerificationReport]]:
    """Verification times per data structure (Table 5.8).

    ``jobs``/``cache`` pass through to the sharded engine; the table
    gains per-structure shard counts, cache hit/miss columns, and the
    slowest shard so parallel runs can be load-balanced by eye.
    """
    reports = verify_all(scope or Scope(), backend=backend,
                         registry=registry, jobs=jobs, cache=cache)
    rows = []
    for name, report in reports.items():
        slowest = report.slowest_task
        paper = PAPER_TIMES.get(name)
        rows.append([
            name,
            str(report.condition_count),
            str(report.method_count),
            f"{report.elapsed:.2f}s",
            f"{paper:.1f}s" if paper is not None else "-",
            str(len(report.task_timings)),
            f"{report.cache_hits}/{report.cache_misses}",
            (f"{slowest.label} ({slowest.elapsed:.2f}s)"
             if slowest is not None else "-"),
            "yes" if report.all_verified else "NO",
        ])
    total_methods = sum(r.method_count for r in reports.values())
    rows.append(["Total", str(sum(r.condition_count
                                  for r in reports.values())),
                 str(total_methods),
                 f"{sum(r.elapsed for r in reports.values()):.2f}s",
                 f"{sum(PAPER_TIMES.values()):.1f}s",
                 str(sum(len(r.task_timings) for r in reports.values())),
                 f"{sum(r.cache_hits for r in reports.values())}"
                 f"/{sum(r.cache_misses for r in reports.values())}",
                 "", ""])
    headers = ["Data Structure", "conditions", "methods",
               f"measured ({backend})", "paper (Jahob)", "tasks",
               "cache h/m", "slowest shard", "all verified"]
    return _format_table(headers, rows), reports


def task_timing_table(reports: dict[str, VerificationReport],
                      limit: int = 10) -> str:
    """The ``limit`` slowest task shards across a set of reports."""
    timings = [t for report in reports.values()
               for t in report.task_timings]
    timings.sort(key=lambda t: t.elapsed, reverse=True)
    rows = [[t.label, t.backend, f"{t.elapsed:.3f}s",
             "hit" if t.cached else "miss"]
            for t in timings[:limit]]
    return _format_table(["task shard", "backend", "elapsed", "cache"],
                         rows)


# -- Table 5.9: proof-language command counts ------------------------------------

#: The paper's command counts for the 57 hard ArrayList methods.
PAPER_COMMANDS = {"note": 128, "assuming": 51, "pickWitness": 22,
                  "total": 201}


def table_5_09() -> str:
    """Proof-language command counts (Table 5.9), ours vs the paper's."""
    ours = command_count_table()
    rows = []
    for name in ("note", "assuming", "pickWitness", "total"):
        rows.append([name, str(ours.get(name, 0)),
                     str(PAPER_COMMANDS[name])])
    headers = ["Proof Language Command", "measured", "paper"]
    return _format_table(headers, rows)


# -- Table 5.10: inverse operations ------------------------------------------------

def table_5_10(registry=None) -> str:
    """The registered inverse operations (Table 5.10's eight)."""
    registry = _registry(registry)
    rows = []
    for family in registry.families():
        for inv in registry.inverses(family):
            op = registry.spec(family).operations[inv.op]
            call = f"{'r = ' if op.result_sort is not None else ''}" \
                   f"s1.{inv.op}(" \
                   + ", ".join(p.name for p in op.params) + ")"
            rows.append([inv.family, call, inv.render()])
    headers = ["Data Structure", "Operation", "Inverse Operation"]
    return _format_table(headers, rows)


# -- runtime throughput: policy comparison -------------------------------------

def workload_report_table(runs) -> str:
    """One row per workload run (structure x workload x policy)."""
    headers = ["structure", "workload", "policy", "mode", "workers",
               "shards", "commits", "aborts", "conflict rate", "ops/s",
               "serializable"]
    rows = [[run.structure, run.workload.label, run.policy,
             run.conflict_mode, str(run.workers), str(run.shards),
             str(run.commits),
             str(run.aborts), f"{run.conflict_rate:.0%}",
             f"{run.ops_per_second:,.0f}",
             "yes" if run.serializable else "NO"]
            for run in runs]
    return _format_table(headers, rows)


def policy_comparison_table(runs, policies=None) -> str:
    """The headline pivot: per (structure, workload), the abort count and
    conflict rate each conflict-detection policy produced, the
    wall-clock speedup of each policy over the mutex baseline on that
    same workload, and whether the verified commutativity conditions
    admitted strictly more concurrency (fewer aborts) than read/write
    conflict detection — the paper's Chapter 1 claim, measured and
    quantified end-to-end.
    """
    from ..runtime.gatekeeper import POLICIES
    seen = {run.policy for run in runs}
    if policies is None:
        policies = [p for p in POLICIES if p in seen]
    # Columns that no run in this report can populate are dropped
    # entirely rather than rendered as dashes: single-policy and
    # single-shard reports get a table exactly as wide as their data.
    with_speedups = "mutex" in seen and len(seen) > 1
    speedup_policies = [p for p in policies if p != "mutex"] \
        if with_speedups else []
    with_verdict = {"commutativity", "read-write"} <= seen
    with_shards = any(run.shards != 1 for run in runs)
    groups: dict[tuple, dict] = {}
    for run in runs:
        key = (run.structure, run.workload.label, run.conflict_mode,
               run.workers, run.shards)
        groups.setdefault(key, {})[run.policy] = run
    rows = []
    for (structure, label, mode, workers, shards), by_policy \
            in groups.items():
        row = [structure, label, str(workers)]
        if with_shards:
            row.append(str(shards))
        for policy in policies:
            run = by_policy.get(policy)
            row.append("-" if run is None else
                       f"{run.aborts} ({run.conflict_rate:.0%})")
        mutex = by_policy.get("mutex")
        for policy in speedup_policies:
            run = by_policy.get(policy)
            if (run is None or mutex is None or run.wall_seconds <= 0
                    or mutex.wall_seconds <= 0):
                row.append("-")
            else:
                row.append(f"{mutex.wall_seconds / run.wall_seconds:.2f}x")
        if with_verdict:
            comm = by_policy.get("commutativity")
            rw = by_policy.get("read-write")
            if comm is not None and rw is not None:
                row.append("yes" if comm.aborts < rw.aborts else "no")
            else:
                row.append("-")
        rows.append(row)
    headers = (["structure", "workload", "workers"]
               + (["shards"] if with_shards else [])
               + [f"{p}: aborts (conflict rate)" for p in policies]
               + [f"{p} speedup vs mutex" for p in speedup_policies]
               + (["commutativity wins"] if with_verdict else []))
    return _format_table(headers, rows)


def shard_contention_table(runs) -> str:
    """Per-shard admission statistics of each run: where the checks and
    conflicts landed, so hot regions (and router imbalance) are visible
    at a glance.

    Renders only runs that actually sharded their log; when every run
    is single-shard (or carries no shard stats at all) there is no
    per-shard story to tell, so a one-line note replaces the
    empty-column table."""
    headers = ["structure", "workload", "policy", "shard", "checks",
               "conflicts", "conflict rate", "outstanding"]
    rows = []
    for run in runs:
        if len(run.shard_stats) <= 1:
            continue  # single-shard: the workload table already has it
        for stats in run.shard_stats:
            checks = stats["conflict_checks"]
            rate = stats["conflicts"] / checks if checks else 0.0
            rows.append([run.structure, run.workload.label, run.policy,
                         str(stats["shard"]), str(checks),
                         str(stats["conflicts"]), f"{rate:.0%}",
                         str(stats["outstanding"])])
    if not rows:
        return ("(no per-shard breakdown: every run used a single "
                "shard — totals are in the workload table)")
    return _format_table(headers, rows)


def drift_admission_table(runs) -> str:
    """The drift guard's traffic per run: how many pair checks hit the
    guard, how many a compiled drift-stable condition admitted (split
    by certificate tier — ``stable hits`` for bounded-sweep weakenings,
    ``proved hits`` for symbolically proved conditions, ``synth hits``
    for conditions the abduction loop discovered), how many fell
    back to the conservative router oracle (and how many of those the
    oracle admitted), and how many would-be admissions the
    undo-commutation guard refused."""
    rows = []
    for run in runs:
        report = run.report
        if not (report.drift_checks or report.drift_fallbacks
                or report.undo_refusals):
            # drift_fallbacks can be nonzero with zero drift_checks:
            # the EvalError path is conservative without being drifted.
            continue
        semantic_hits = (report.stable_hits + report.proved_hits
                         + report.synthesized_hits)
        stable_rate = (semantic_hits / report.drift_checks
                       if report.drift_checks else 0.0)
        rows.append([run.structure, run.workload.label, run.policy,
                     "yes" if getattr(run, "stable", False) else "no",
                     str(report.drift_checks), str(report.stable_hits),
                     str(report.proved_hits),
                     str(report.synthesized_hits),
                     f"{stable_rate:.0%}",
                     str(report.drift_fallbacks),
                     str(report.fallback_admits),
                     str(report.undo_refusals)])
    if not rows:
        return "(no drift-guarded checks: every admission was in its " \
               "verified environment)"
    headers = ["structure", "workload", "policy", "stable",
               "drift checks", "stable hits", "proved hits",
               "synth hits", "hit rate",
               "fallbacks", "fallback admits", "undo refusals"]
    return _format_table(headers, rows)


def stability_table(reports) -> str:
    """Per-pair drift-stability verdicts of one or more
    :class:`~repro.stability.StabilityReport` values (``python -m
    repro stability``).  The ``armed/reported`` column splits each
    pair's candidates into the ones compiled into its runtime guard
    versus the ones kept as report-only evidence; a ``*`` marks proved
    candidates (prover runs) and a ``+`` abduced ones (abduction
    runs)."""
    if not isinstance(reports, dict):
        reports = {reports.name: reports}
    rows = []
    for name, report in reports.items():
        for pair in report.pairs:
            armed = sum(1 for c in pair.candidates if c.armed)
            proved = sum(1 for c in pair.candidates
                         if c.armed and c.proved)
            abduced = sum(1 for c in pair.candidates
                          if c.armed and c.origin == "abduced")
            split = f"{armed}/{len(pair.candidates)}"
            if proved:
                split += f" ({proved}*)"
            if abduced:
                split += f" ({abduced}+)"
            rows.append([name, pair.pair_label, pair.verdict,
                         split if pair.candidates else "-",
                         pair.stable_text or "-"])
    headers = ["structure", "pair", "verdict", "armed/reported",
               "drift-stable condition"]
    return _format_table(headers, rows)


def service_soak_table(leg: dict) -> str:
    """The soak ramp of one deployment from a ``BENCH_service.json``
    soak leg (``bench --suite service``): one row per ramp
    point — client processes, workload runs, committed-ops/s, latency
    percentiles, pooled-domain reuses — with the knee row starred."""
    points = leg.get("points", ())
    if not points:
        return "(no soak points to report)"
    knee = leg.get("knee") or {}
    rows = []
    for point in points:
        at_knee = point["clients"] == knee.get("clients")
        rows.append([
            f"{point['clients']}{' *' if at_knee else ''}",
            str(point["runs"]),
            str(point["committed_operations"]),
            f"{point['committed_ops_per_second']:,.0f}",
            f"{point['latency_ms']['p50']:.3f}",
            f"{point['latency_ms']['p95']:.3f}",
            str(point["domain_reuses"]),
            "ERROR" if point["errors"] else "ok"])
    headers = ["clients", "runs", "committed ops", "ops/s",
               "latency p50 ms", "latency p95 ms", "domain reuses",
               "status"]
    table = _format_table(headers, rows)
    if knee:
        table += (f"\n(* knee: {knee['clients']} clients, "
                  f"{knee['committed_ops_per_second']:,.0f} committed "
                  f"ops/s, p95 {knee['latency_p95_ms']:.3f} ms)")
    return table


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty
    sample — deliberately interpolation-free so small samples report
    values that actually occurred."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
    return ordered[int(rank) - 1]


@dataclass
class TableIndex:
    """Programmatic index of every reproduced table."""

    @staticmethod
    def all() -> dict[str, object]:
        return {
            "5.1": table_5_01, "5.2": table_5_02, "5.3": table_5_03,
            "5.4": table_5_04, "5.5": table_5_05, "5.6": table_5_06,
            "5.7": table_5_07, "5.8": table_5_08, "5.9": table_5_09,
            "5.10": table_5_10,
        }
