"""The runtime workloads: ``contended``, ``large-state`` and ``served``.

A run is closed loop — the executor waits for every admission reply —
and proceeds in rounds: one executor batch per structure, each batch a
fresh seeded set of transaction programs.  A round's programs are
generated before any of its batches runs, so generation stays outside
every timed ``run()`` call.  The untraced run makes :data:`PASSES`
passes over its rounds: the first runs fresh rounds for its share of
``--seconds``, the others run the same programs again, and each batch
keeps its fastest pass.  Every batch uses ``policy="commutativity"``,
``workers=1``, the fixed :data:`MAX_ROUNDS` liveness budget and the
executor's default conflict response, so a change of that default shows
up here.  ``README.md`` gives each shape's rationale.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import statistics
import sys
import time
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import dataclass

from repro.abduction import DEMO_FAMILY, make_demo_registry
from repro.api import Registry, Session
from repro.runtime import LocalAdmissionBackend, SpeculativeExecutor
from repro.workloads import WorkloadGenerator, WorkloadSpec

from .metrics import (PER_LAYER, STRUCTURES, BatchWeighted, Result,
                      children_rss_mb, geomean, median, peak_rss_mb,
                      percentile, ratio)
from .probes import ProbeBackend, Tracer, instrument, layer_times

#: Scheduling rounds a batch may take before its stragglers are quenched.
MAX_ROUNDS = 200_000
#: Timed passes over an untraced run's rounds.  A batch's time is its
#: fastest pass and an admission call's its fastest repeat: a shared
#: host runs the same code up to 1.7x slower for a second or more at a
#: time, and repeats a few seconds apart rarely all land in such a spell.
PASSES = 3
#: The command-line seed of the set-up warm-up rounds: every run warms
#: up on the same programs, so ``setup_s`` measures the same work.
WARMUP_SEED = 0
#: Timed set-ups per untraced run; ``setup_s`` is their median.  The
#: first sets up the measured context, the rest are spread over the
#: measurement window (which is extended by the time they take), so the
#: median averages the host's speed over the run instead of catching one
#: moment.  With four, served medians of five runs each differed by 15 %.
SETUP_SAMPLES = 8


@dataclass(frozen=True)
class Shape:
    """One runtime workload: the structures a round visits, the
    :class:`WorkloadSpec` fields (the seed is set per batch), the
    gatekeeper's shard count, and whether admission is served."""

    structures: tuple[str, ...]
    spec: dict
    shards: int
    served: bool = False


SHAPES = {
    # The pinned stability-gate shape (write-heavy hot-key traffic, key
    # space 24, preload 20) at 4 operations per transaction instead of
    # 6: at 12 x 6, 2 of 700 batches (seeds 0-99) were quenched at
    # MAX_ROUNDS and single batches ran for up to 12 s, so no run could
    # be both failure-free and steady.  ArrayList sits out: with its
    # stable conditions armed, about 1 batch in 400 of this shape is
    # not serializable (workload seed 13000083 is one), which would
    # fail runs at random.
    "contended": Shape(tuple(name for name in STRUCTURES
                             if name != "ArrayList"), dict(
        profile="write-heavy", distribution="hot-key", transactions=12,
        ops_per_transaction=4, key_space=24, value_space=3, preload=20),
        shards=1),
    # Preload 1,000 of 2,000 keys rather than 2,000 of 4,000: a round
    # costs about two thirds as much (HashTable 176 ms against 254 ms)
    # at the same waste, so a run holds more rounds and its counts
    # depend less on its seed.  Abstract state stays the largest layer
    # (share 0.63).  Larger transactions thrash: 16 x 8 runs 4 to 36
    # executed ops per committed op.
    "large-state": Shape(("HashSet", "HashTable", "ArrayList"), dict(
        profile="read-heavy", distribution="uniform", transactions=8,
        ops_per_transaction=8, key_space=2000, preload=1000), shards=4),
    # 8 x 4 rather than 12 x 6: a 12 x 6 batch makes about 650 RPCs, so
    # a 15 s run held about 20 batches and five seeds spread 44 % on
    # committed ops/s and 21 % on executed per committed op.
    "served": Shape(("HashSet", "HashTable"), dict(
        profile="write-heavy", distribution="hot-key", transactions=8,
        ops_per_transaction=4, key_space=200, preload=200),
        shards=4, served=True),
}

#: Per-layer decision-path metric -> ExecutionReport counter.
DECISION_COUNTERS = {
    "gatekeeper.drift_checks": "drift_checks",
    "gatekeeper.stable_hits": "stable_hits",
    "gatekeeper.proved_hits": "proved_hits",
    "gatekeeper.synthesized_hits": "synthesized_hits",
    "gatekeeper.fallbacks": "drift_fallbacks",
    "gatekeeper.fallback_admits": "fallback_admits",
    "gatekeeper.undo_refusals": "undo_refusals",
    "gatekeeper.eval_errors": "eval_errors",
}
#: Every ExecutionReport counter a batch keeps.
REPORT_COUNTERS = ("aborts", "conflict_checks", "conflicts",
                   "compiled_hits", *DECISION_COUNTERS.values())


def batch_seed(seed: int, index: int) -> int:
    """The workload seed of round ``index`` (warm-ups use negative
    indices); rounds of different command-line seeds never share one."""
    return seed * 1_000_003 + index


def supported(fn, **flags) -> dict:
    """The ``flags`` that ``fn``'s signature still accepts.

    ``compiled=`` is slated for removal (compiled admission becoming
    the only hot path).  Sending it only while it is accepted lets the
    same benchmark measure commits before and after that deletion."""
    params = inspect.signature(fn).parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return flags
    names = {p.name for p in params}
    return {name: value for name, value in flags.items() if name in names}


def executor_for(registry, shape: Shape, batch, backend=None):
    return SpeculativeExecutor(
        batch.structure, policy="commutativity", seed=batch.seed,
        max_rounds=MAX_ROUNDS, registry=registry, workers=1,
        shards=shape.shards, stable=True, backend=backend,
        **supported(SpeculativeExecutor, compiled=True))


def arm(registry, structures, cache) -> dict:
    """Register drift-stable conditions from the engine cache at
    ``cache``: prover-compiled for the builtins, abduced for the
    RegisterCell demo.  Returns the stability reports."""
    session = Session(registry=registry, jobs=1, cache=str(cache))
    builtins = [name for name in structures if name != DEMO_FAMILY]
    reports = dict(session.compile_stable(builtins, prover=True)) \
        if builtins else {}
    if DEMO_FAMILY in structures:
        reports.update(session.abduce_stable([DEMO_FAMILY]))
    return reports


def source_digest(root) -> str:
    """A hash of every source file of ``src/repro``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fill_cache(paths) -> None:
    """Fill the benchmark's engine cache with every arming the runtime
    workloads load (the served reference's bounded tier included),
    before any set-up is timed.  A stamp of the sources it was filled
    for skips the fill on later runs — it would only read the cache,
    and its memory would count in this process's peak."""
    stamp = paths.cache / "filled-for"
    sources = source_digest(paths.root)
    if stamp.is_file() and stamp.read_text() == sources:
        return
    registry = make_demo_registry()
    arm(registry, STRUCTURES, paths.cache)
    Session(registry=registry, jobs=1, cache=str(paths.cache)) \
        .compile_stable(list(SHAPES["served"].structures))
    stamp.write_text(sources)


def clear_compiled_cache() -> None:
    """Drop the process-wide compiled-closure cache, so every set-up
    arms from scratch as a fresh process would."""
    import repro.compiled
    clear = getattr(repro.compiled, "clear_cache", None)
    if clear is not None:
        clear()


@dataclass(slots=True)
class Batch:
    """One executor batch: its inputs, its timings, and the little the
    benchmark keeps of its ExecutionReport — reports are dropped, so
    the benchmark's memory barely grows with the batches it runs."""

    structure: str
    seed: int
    programs: list | None
    setup: list | None
    transactions: int
    gen_s: float = 0.0
    traced: bool = False
    #: ``run()`` seconds of the fastest pass.
    run_s: float = 0.0
    error: str | None = None
    #: ``check_many`` calls (one admission RPC each when served).
    calls: int = 0
    #: Each admission call's seconds, in call order, fastest over the
    #: passes: the report's RPC latencies when served, else the probe's
    #: ``check_many`` timings.
    latencies: array | None = None
    operations: int = 0
    committed: int = 0
    commits: int = 0
    serializable: bool = False
    digest: str | None = None
    #: The report's counters (traced batches only).
    counters: dict | None = None
    #: The decision digest the batch must reproduce: a served batch's
    #: local bounded-tier reference, a traced batch's untraced twin's.
    expected_digest: str | None = None
    #: Set when a repeat pass decided differently from the first.
    repeat_differs: bool = False

    def observe(self, report, checks: list[float]) -> None:
        self.operations = report.operations
        self.committed = report.committed_operations
        self.commits = len(report.commit_order)
        self.serializable = report.serializable
        self.digest = report.decision_digest()
        self.latencies = array("d", getattr(report, "admission_latencies",
                                            None) or checks)
        if self.traced:
            self.counters = {name: getattr(report, name, 0)
                             for name in REPORT_COUNTERS}

    def fold(self, again: "Batch") -> None:
        """Fold a repeat pass over the same programs into this record.
        The repeat must decide exactly as the first pass did."""
        if self.error is not None or again.error is not None:
            self.error = self.error or again.error
            return
        if again.digest != self.digest or not again.serializable:
            self.repeat_differs = True
        self.run_s = min(self.run_s, again.run_s)
        if len(again.latencies) == len(self.latencies):
            self.latencies = array("d", map(min, self.latencies,
                                            again.latencies))

    def twin(self) -> "Batch":
        """The same programs, to run again under the tracer."""
        return Batch(self.structure, self.seed, self.programs, self.setup,
                     self.transactions, traced=True,
                     expected_digest=self.digest)


def generate(generator, shape: Shape, seed: int, index: int) -> list[Batch]:
    """Round ``index``: one batch of fresh programs per structure."""
    batches = []
    for name in shape.structures:
        start = time.perf_counter()
        workload = WorkloadSpec(seed=batch_seed(seed, index), **shape.spec)
        programs = generator.generate(name, workload)
        setup = generator.generate_setup(name, workload)
        batches.append(Batch(name, workload.seed, programs, setup,
                             len(programs),
                             gen_s=time.perf_counter() - start))
    return batches


class Context:
    """One set-up: a registry, its arming and a probe in front of the
    admission backend — in-process, or a fresh ``python -m repro
    serve`` child for the served workload."""

    def __init__(self, shape: Shape, paths) -> None:
        self.shape = shape
        self.server = None
        self.reports: dict = {}
        if shape.served:
            from repro.service.client import ServiceBackend
            from .serve import HOST, ServerProcess
            self.registry = Registry.with_builtins()
            self.server = ServerProcess(paths.root, paths.tmp)
            inner = ServiceBackend(HOST, self.server.port,
                                   registry=self.registry)
        else:
            self.registry = make_demo_registry()
            self.reports = arm(self.registry, shape.structures, paths.cache)
            inner = LocalAdmissionBackend(self.registry)
        self.backend = ProbeBackend(inner)
        self.classes = {self.registry.implementation(name)
                        for name in shape.structures}

    def execute(self, batch: Batch, tracer: Tracer | None = None) -> Batch:
        """Run one batch."""
        executor = executor_for(self.registry, self.shape, batch,
                                self.backend)
        report = None
        self.backend.tracer = tracer
        try:
            with instrument(tracer, self.classes) if tracer else nullcontext():
                start = time.perf_counter()
                report = executor.run(batch.programs, setup=batch.setup)
                batch.run_s = time.perf_counter() - start
        except Exception:
            # A batch boundary: record the failure and keep measuring.
            batch.error = traceback.format_exc()
            print(f"perfbench: {batch.structure} batch (seed {batch.seed}) "
                  f"raised:\n{batch.error}", file=sys.stderr)
            if tracer is not None:
                tracer.unwind()
        finally:
            self.backend.tracer = None
            checks = self.backend.take()
        batch.calls = len(checks)
        if report is not None:
            batch.observe(report, checks)
        return batch

    def close(self) -> None:
        try:
            self.backend.close()
        finally:
            if self.server is not None:
                self.server.stop()


class SetUps:
    """The timed set-ups of one run: registry, arming and one warm-up
    batch per structure (served: the server spawn and first opens
    too).  Every run warms up on the same programs."""

    def __init__(self, shape: Shape, paths) -> None:
        self.shape = shape
        self.paths = paths
        self.setup_s: list[float] = []
        self.warmups: list[Batch] = []

    def new(self) -> Context:
        clear_compiled_cache()
        gc.collect()
        start = time.perf_counter()
        context = Context(self.shape, self.paths)
        warm = [context.execute(batch) for batch in generate(
            WorkloadGenerator(context.registry), self.shape, WARMUP_SEED,
            -1 - len(self.setup_s))]
        self.setup_s.append(time.perf_counter() - start)
        self.warmups += warm
        return context

    def sample(self) -> None:
        """One more set-up, timed and then thrown away."""
        self.new().close()
        gc.collect()


def measure(context: Context, shape: Shape, seed: int, seconds: float,
            tracer: Tracer | None, setups: SetUps,
            samples: int) -> list[Batch]:
    """Run ``passes`` passes over whole rounds for about ``seconds`` of
    measuring, taking set-up samples until there are ``samples`` at
    evenly spaced points.  The first pass runs fresh rounds until its
    share of ``seconds`` has passed; each later pass regenerates the
    same rounds and folds its batches into the first pass's records.
    Traced runs make one pass that executes every batch twice —
    untraced, then traced — so the difference is the tracing overhead."""
    generator = WorkloadGenerator(context.registry)
    passes = 1 if tracer is not None else PASSES
    batches: list[Batch] = []
    start = time.perf_counter()
    paused = 0.0

    def measured() -> float:
        """Seconds measured so far, after taking a set-up sample if one
        is due."""
        nonlocal paused
        taken = len(setups.setup_s)
        if taken < samples and (time.perf_counter() - start - paused
                                >= taken * seconds / samples):
            pause = time.perf_counter()
            setups.sample()
            paused += time.perf_counter() - pause
        return time.perf_counter() - start - paused

    rounds = 0
    while rounds == 0 or measured() < seconds / passes:
        for batch in generate(generator, shape, seed, rounds):
            batches.append(context.execute(batch))
            if tracer is not None:
                tracer.batch = len(batches)
                batches.append(context.execute(batch.twin(), tracer))
            batch.programs = batch.setup = None
        rounds += 1
    width = len(shape.structures)
    for _ in range(1, passes):
        for index in range(rounds):
            firsts = batches[index * width:(index + 1) * width]
            for first, again in zip(firsts,
                                    generate(generator, shape, seed, index)):
                first.fold(context.execute(again))
            measured()
    while len(setups.setup_s) < samples:
        setups.sample()
    return batches


def attach_references(batches: list[Batch], shape: Shape, seed: int,
                      paths) -> None:
    """Give every untraced served batch the decision digest of a local
    run of its programs, regenerated, armed at the bounded tier a
    standalone server compiles for itself (a prover-armed reference
    diverges on ArrayList by design).  Runs after the timed loop."""
    registry = Registry.with_builtins()
    Session(registry=registry, jobs=1, cache=str(paths.cache)) \
        .compile_stable(list(shape.structures))
    generator = WorkloadGenerator(registry)
    plain = [batch for batch in batches if not batch.traced]
    width = len(shape.structures)
    for index in range(len(plain) // width):
        for batch, fresh in zip(plain[index * width:(index + 1) * width],
                                generate(generator, shape, seed, index)):
            local = executor_for(registry, shape, fresh)
            batch.expected_digest = local.run(
                fresh.programs, setup=fresh.setup).decision_digest()


def batch_problem(batch: Batch) -> str | None:
    if batch.error is not None:
        return "raised"
    if not batch.serializable:
        return "final state differs from the serial replay"
    if batch.repeat_differs:
        return "a repeat pass decided differently from the first"
    if batch.expected_digest is not None \
            and batch.digest != batch.expected_digest:
        return "decision digest differs from its reference"
    return None


def gate(batches: list[Batch]) -> tuple[bool, int, int]:
    """Every batch must finish, match its serial replay and reproduce
    its expected decision digest, or all its transactions fail; a
    transaction that ``MAX_ROUNDS`` quenched fails on its own."""
    correct, attempted, failed = True, 0, 0
    for batch in batches:
        attempted += batch.transactions
        problem = batch_problem(batch)
        if problem is None:
            failed += batch.transactions - batch.commits
            continue
        correct = False
        failed += batch.transactions
        print(f"perfbench: FAILED {batch.structure} batch (seed "
              f"{batch.seed}{', traced' if batch.traced else ''}): "
              f"{problem}", file=sys.stderr)
    return correct, attempted, failed


def end_to_end(batches: list[Batch], setup_s: list[float]) -> dict:
    measured = [batch for batch in batches if batch.committed]
    groups: dict[str, list[Batch]] = {}
    latencies: dict[str, BatchWeighted] = {}
    for batch in measured:
        groups.setdefault(batch.structure, []).append(batch)
        latencies.setdefault(batch.structure, BatchWeighted()).add(
            batch.latencies)

    def typical(per_batch, mean) -> float:
        """Geometric mean over structures of each one's ``mean`` batch,
        so every structure moves it.  Throughput takes the arithmetic
        and the per-commit ratios the harmonic mean: either way a
        thrashing batch adds a term near zero rather than a huge one,
        and a mean over every batch varies less with the seed than the
        median batch (resampling the batches of one run: 0.02-0.08 IQR
        over median, against 0.03-0.12)."""
        return geomean(mean([per_batch(batch) for batch in group])
                       for group in groups.values())

    return {
        "committed_ops_per_s": typical(lambda b: b.committed / b.run_s,
                                       statistics.fmean),
        "exec_per_commit": typical(lambda b: b.operations / b.committed,
                                   statistics.harmonic_mean),
        "rpcs_per_commit": typical(lambda b: b.calls / b.committed,
                                   statistics.harmonic_mean),
        "rpc_ms_p50": 1e3 * geomean(pooled.percentile(50)
                                    for pooled in latencies.values()),
        "rpc_ms_p90": 1e3 * geomean(pooled.percentile(90)
                                    for pooled in latencies.values()),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(batches: list[Batch], shape: Shape, tracer: Tracer,
              reports: dict, scrape: dict | None) -> dict:
    values = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    pairs = [(plain, traced) for plain, traced in zip(batches[::2],
                                                      batches[1::2])
             if plain.error is None and traced.error is None]
    plain = [pair[0] for pair in pairs]
    traced = [pair[1] for pair in pairs]
    committed = sum(batch.committed for batch in traced)
    layers, windows = layer_times(tracer.spans)

    def total(counter: str) -> float:
        return sum(batch.counters[counter] for batch in traced)

    state, apply_, check, rollback = (
        layers[name] for name in ("impls.state", "impls.apply",
                                  "gatekeeper.check", "transaction.rollback"))
    values.update({
        "workloads.gen_ms": 1e3 * statistics.fmean(b.gen_s for b in plain),
        "impls.state.calls_per_op": ratio(state.calls, committed),
        "impls.state.us": state.mean_us,
        "impls.state.share": ratio(state.self_s, windows),
        "impls.apply.us": apply_.mean_us,
        "impls.apply.share": ratio(apply_.self_s, windows),
        "gatekeeper.open_ms": 1e3 * median(layers["gatekeeper.open"].durations),
        "gatekeeper.check.calls_per_op": ratio(check.calls, committed),
        "gatekeeper.check.us_p50": 1e6 * percentile(check.durations, 50),
        "gatekeeper.check.us_p99": 1e6 * percentile(check.durations, 99),
        "gatekeeper.check.share": ratio(check.inclusive, windows),
        "gatekeeper.pairs_per_check": ratio(total("conflict_checks"),
                                            check.calls),
        "gatekeeper.conflict_rate": ratio(total("conflicts"),
                                          total("conflict_checks")),
        "compiled.hit_share": ratio(total("compiled_hits"),
                                    total("conflict_checks")),
        "gatekeeper.record.us": layers["gatekeeper.record"].mean_us,
        "gatekeeper.release.us": layers["gatekeeper.release"].mean_us,
        "transaction.rollback.calls_per_commit": ratio(rollback.calls,
                                                       committed),
        "transaction.rollback.us": rollback.mean_us,
        "transaction.rollback.share": ratio(rollback.self_s, windows),
        "executor.aborts_per_commit": ratio(total("aborts"), committed),
        "executor.window_share": ratio(windows,
                                       sum(b.run_s for b in traced)),
        "engine.cache_hits": sum(r.cache_hits for r in reports.values()),
        "stability.pairs_proved": sum(r.proved_count
                                      for r in reports.values()),
        "stability.pairs_fragile": sum(r.fragile_count
                                       for r in reports.values()),
        "trace.overhead": ratio(sum(b.run_s for b in traced),
                                sum(b.run_s for b in plain)) - 1.0,
    })
    for metric, counter in DECISION_COUNTERS.items():
        values[metric] = ratio(total(counter), committed)
    for name in shape.structures:
        mine = [batch for batch in plain if batch.structure == name]
        mine_committed = sum(batch.committed for batch in mine)
        values[f"by_structure.{name}.committed_ops_per_s"] = ratio(
            mine_committed, sum(batch.run_s for batch in mine))
        values[f"by_structure.{name}.exec_per_commit"] = ratio(
            sum(batch.operations for batch in mine), mine_committed)
    if shape.served:
        counters = tracer.counters
        server = scrape["server"]
        values.update({
            "service.frames_per_rpc": ratio(counters["service.frames"],
                                            check.calls),
            "service.req_bytes_per_rpc": ratio(counters["service.req_bytes"],
                                               check.calls),
            "service.resp_bytes_per_rpc": ratio(
                counters["service.resp_bytes"], check.calls),
            "service.encode.share": ratio(layers["service.encode"].self_s,
                                          windows),
            "service.decode.share": ratio(layers["service.decode"].self_s,
                                          windows),
            # What the check RPCs spent outside client framing: the
            # socket round trip plus the server's work.
            "service.transit.share": ratio(check.self_s, windows),
            "server.rpcs_total": server["rpcs_total"],
            "server.frames_total": server["frames_total"],
            "server.domains_open": server["domains_open"],
            "server.rss_mb": children_rss_mb(),
        })
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, paths,
        inject: str | None = None) -> Result:
    shape = SHAPES[workload]
    fill_cache(paths)
    setups = SetUps(shape, paths)
    tracer = Tracer() if trace else None
    scrape = None
    context = setups.new()
    try:
        gc.collect()
        batches = measure(context, shape, seed, seconds, tracer, setups,
                          1 if trace else SETUP_SAMPLES)
        if tracer is not None and context.server is not None:
            scrape = context.server.metrics()
        reports = context.reports
    finally:
        context.close()
    if shape.served:
        attach_references(batches, shape, seed, paths)
    if inject == "digest-mismatch":
        batches[0].expected_digest = "injected-mismatch"
    elif inject == "non-serializable":
        batches[0].serializable = False
    correct, attempted, failed = gate(setups.warmups + batches)
    if tracer is None:
        values = end_to_end(batches, setups.setup_s)
    else:
        values = per_layer(batches, shape, tracer, reports, scrape)
        tracer.write(paths.work / f"trace-{workload}.jsonl")
    return Result(correct, attempted, failed, values)
