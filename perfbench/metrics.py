"""Every metric the benchmark reports, declared once.

``BENCHMARK.json`` mirrors :data:`END_TO_END` and :data:`PER_LAYER`
(``selftest.py`` checks that it does).  ``run.py --trace 0`` emits
exactly the end-to-end set and ``--trace 1`` exactly the per-layer set,
on every workload; a per-layer metric whose layer does not run on a
workload (the wire on ``contended``, the runtime on ``cold-verify``)
reads 0 there.  ``README.md`` defines every metric per workload.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from array import array
from dataclasses import dataclass, field

#: The six builtins plus the projector-less RegisterCell demo.
STRUCTURES = ("Accumulator", "ListSet", "HashSet", "AssociationList",
              "HashTable", "ArrayList", "RegisterCell")

#: ``(name, unit, better, bound)``: ``bound`` is the share of the
#: parent's median by which the metric may worsen before a change is
#: refused.
END_TO_END = (
    ("committed_ops_per_s", "ops/s", "higher", 0.25),
    ("exec_per_commit", "ratio", "lower", 0.2),
    ("rpcs_per_commit", "ratio", "lower", 0.2),
    ("rpc_ms_p50", "ms", "lower", 0.25),
    ("rpc_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

#: ``(name, unit, better)``; per-layer metrics carry no bound.
PER_LAYER = (
    ("workloads.gen_ms", "ms", "lower"),
    ("impls.state.calls_per_op", "1/op", "lower"),
    ("impls.state.us", "us", "lower"),
    ("impls.state.share", "share", "lower"),
    ("impls.apply.us", "us", "lower"),
    ("impls.apply.share", "share", "lower"),
    ("gatekeeper.open_ms", "ms", "lower"),
    ("gatekeeper.check.calls_per_op", "1/op", "lower"),
    ("gatekeeper.check.us_p50", "us", "lower"),
    ("gatekeeper.check.us_p99", "us", "lower"),
    ("gatekeeper.check.share", "share", "lower"),
    ("gatekeeper.pairs_per_check", "ratio", "lower"),
    ("gatekeeper.conflict_rate", "ratio", "lower"),
    ("gatekeeper.drift_checks", "1/op", "lower"),
    ("gatekeeper.stable_hits", "1/op", "higher"),
    ("gatekeeper.proved_hits", "1/op", "higher"),
    ("gatekeeper.synthesized_hits", "1/op", "higher"),
    ("gatekeeper.fallbacks", "1/op", "lower"),
    ("gatekeeper.fallback_admits", "1/op", "higher"),
    ("gatekeeper.undo_refusals", "1/op", "lower"),
    ("gatekeeper.eval_errors", "1/op", "lower"),
    ("compiled.hit_share", "share", "higher"),
    ("gatekeeper.record.us", "us", "lower"),
    ("gatekeeper.release.us", "us", "lower"),
    ("transaction.rollback.calls_per_commit", "1/op", "lower"),
    ("transaction.rollback.us", "us", "lower"),
    ("transaction.rollback.share", "share", "lower"),
    ("executor.aborts_per_commit", "1/op", "lower"),
    ("executor.window_share", "share", "higher"),
    *((f"by_structure.{name}.{metric}", unit, better)
      for name in STRUCTURES
      for metric, unit, better in (("committed_ops_per_s", "ops/s", "higher"),
                                   ("exec_per_commit", "ratio", "lower"))),
    ("service.frames_per_rpc", "ratio", "higher"),
    ("service.req_bytes_per_rpc", "B", "lower"),
    ("service.resp_bytes_per_rpc", "B", "lower"),
    ("service.encode.share", "share", "lower"),
    ("service.decode.share", "share", "lower"),
    ("service.transit.share", "share", "lower"),
    ("server.rpcs_total", "count", "lower"),
    ("server.frames_total", "count", "lower"),
    ("server.domains_open", "count", "lower"),
    ("server.rss_mb", "MB", "lower"),
    ("commutativity.verify_s", "s", "lower"),
    ("inverses.verify_s", "s", "lower"),
    ("stability.compile_s", "s", "lower"),
    ("prover.compile_s", "s", "lower"),
    ("abduction.compile_s", "s", "lower"),
    ("stability.pairs_proved", "count", "higher"),
    ("stability.pairs_fragile", "count", "lower"),
    ("engine.cache_hits", "count", "lower"),
    ("trace.overhead", "share", "lower"),
)


@dataclass
class Result:
    """One run's correctness gate and metric values."""

    correct: bool
    attempted: int
    failed: int
    values: dict = field(default_factory=dict)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; 0.0 without samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[min(max(rank, 0), len(ordered) - 1)]


class BatchWeighted:
    """Latency samples pooled across batches with every batch weighing
    the same: each batch contributes its :data:`POINTS` quantiles, so
    one thrashing batch's thousands of calls count as one batch, and
    memory stays flat however many calls a run makes."""

    POINTS = 100

    def __init__(self) -> None:
        self.values = array("d")

    def add(self, samples) -> None:
        ordered = sorted(samples)
        count = len(ordered)
        if count:
            self.values.extend(ordered[(2 * i + 1) * count // (2 * self.POINTS)]
                               for i in range(self.POINTS))

    def percentile(self, q: float) -> float:
        return percentile(self.values, q)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values) -> float:
    """Geometric mean of the positive ``values``; 0.0 when there are none."""
    logs = [math.log(value) for value in values if value > 0]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def children_rss_mb() -> float:
    """Peak RSS of the largest reaped child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (the
    admission server, or an engine worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + children_rss_mb()


def declared(trace: bool):
    return PER_LAYER if trace else END_TO_END


def table(workload: str, result: Result, trace: bool) -> str:
    """The human-readable metric table printed before the JSON line."""
    kind = "per-layer" if trace else "end-to-end"
    lines = [f"perfbench {workload}: {kind} metrics"]
    for name, unit, *_ in declared(trace):
        lines.append(f"  {name:<48} {result.values[name]:>14.6g} {unit}")
    lines.append(f"  {'failed_share':<48} "
                 f"{ratio(result.failed, result.attempted):>14.6g} ratio "
                 f"({result.failed} of {result.attempted} transactions or "
                 f"verdicts failed; correct={result.correct})")
    return "\n".join(lines)


def result_line(result: Result, trace: bool) -> str:
    """The final stdout line: the gate plus exactly the declared set."""
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(result.values[name]),
                           "unit": unit}
                    for name, unit, *_ in declared(trace)},
    })
