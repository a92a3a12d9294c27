"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``verify [--name NAME] [--backend symbolic|bounded] [--jobs N]
  [--no-cache]`` — verify the commutativity conditions of one data
  structure (or all registered) through the sharded engine;
- ``inverses`` — verify the registered inverse operations (Table 5.10);
- ``run --name NAME [--policy P] [--profile P] [--distribution D]
  [--workers N] [--arm TIER]`` — generate a seeded workload and
  execute it speculatively (all three policies and a comparison table
  when ``--policy`` is omitted); ``--arm weakened|proved|synthesized``
  compiles that tier's drift-stable conditions first and arms the
  gatekeeper's drift guard with them (see :data:`ARM_TIERS`).
  Admission always runs through compiled formulas
  (:mod:`repro.compiled`), with the interpreter as the per-check
  fallback;
- ``stability [--name NAME] [--arm TIER]`` — compile every between
  condition into a drift-stability verdict (stable / weakened / proved
  / synthesized / fragile) plus, where possible, a drift-stable
  weakening, through the cached engine;
- ``bench [--suite verify|runtime|nogil] [--arm TIER] [--seeds N]`` —
  ``verify``: time a cold verification sweep per structure into
  ``BENCH_verify.json``; ``runtime``: sweep the throughput harness
  over every structure and policy into ``BENCH_runtime.json``
  (``--arm weakened`` adds the drift-admission gate on preloaded
  hot-key workloads, ``proved`` its prover leg, ``synthesized`` the
  abduction gate; ``--seeds N`` the p50/p95 seed matrix);
  ``nogil``: the informational free-threaded scaling sweep into
  ``BENCH_nogil.json``; ``service``: the client/server admission bench
  into ``BENCH_service.json`` (four-leg decision identity across
  local/served/cluster deployments, cross-process latency/throughput,
  /metrics, and — with ``--soak`` — the saturation-knee gate: a
  multi-worker cluster must out-knee the single process);
  verify/runtime optionally gate against a checked-in baseline;
- ``serve [--host H] [--port P] [--workers N]`` — run the admission
  server (frame RPCs + HTTP ``/metrics`` on one port) until SIGTERM,
  then drain; ``--workers N > 1`` spawns a shard-partitioned cluster
  (shard ``s`` owned by worker ``s % N``) on ephemeral ports;
- ``tables [--table N]`` — print the paper's evaluation tables;
- ``show --name NAME --m1 OP --m2 OP [--kind K]`` — print a condition
  and its generated testing methods (Figure 2-2 style);
- ``list`` — print the registered data structures, their specification
  families, and condition/inverse counts.

Every command resolves names through a :class:`repro.api.Registry`
(:data:`repro.api.DEFAULT_REGISTRY` unless :func:`main` is given one),
so structures registered by downstream code appear here like built-ins.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .api import DEFAULT_REGISTRY, Registry, UnknownNameError
from .commutativity import Kind, generate_methods
from .commutativity.verifier import verify_all, verify_data_structure
from .engine import ENGINE_VERSION, resolve_jobs
from .eval import Scope, paper_scope
from .inverses import check_all_inverses
from .reporting.tables import TableIndex, task_timing_table

#: Back-compat: the default registry's structure names.
ALL_NAMES = DEFAULT_REGISTRY.names()


def _cmd_verify(args: argparse.Namespace, registry: Registry) -> int:
    scope = Scope(max_seq_len=args.max_seq_len)
    cache = not args.no_cache
    failed = 0
    if args.name:
        reports = {args.name: verify_data_structure(
            args.name, scope, backend=args.backend, registry=registry,
            jobs=args.jobs, cache=cache)}
    else:
        reports = verify_all(scope, backend=args.backend, registry=registry,
                             jobs=args.jobs, cache=cache)
    for report in reports.values():
        print(report.summary())
        if report.cache_hits:
            print(f"   cache: {report.cache_hits} of "
                  f"{len(report.task_timings)} task shards served from "
                  f".repro-cache/")
        for failure in report.failures():
            failed += 1
            print("  ", failure.summary())
            for ce in failure.counterexamples:
                print("    ", ce)
    return 1 if failed else 0


def _cmd_inverses(args: argparse.Namespace, registry: Registry) -> int:
    scope = Scope(max_seq_len=args.max_seq_len)
    failed = 0
    for result in check_all_inverses(scope, registry=registry,
                                     jobs=args.jobs,
                                     cache=not args.no_cache):
        print(result.summary())
        if not result.verified:
            failed += 1
    return 1 if failed else 0


#: Structures whose baseline time is below this floor are compared
#: against the floor instead (micro-timings are pure noise, and the
#: baseline was recorded on different hardware than CI runs on).
BENCH_FLOOR_SECONDS = 0.1


#: The verification scope stability compilation uses for runtime
#: consumption.  The full paper scope, NOT its smoke-test reduction: the
#: quantified re-verifier needs a scope that can *represent* the
#: refuting cases (at ``max_seq_len=2`` no list is long enough to run
#: ``remove_at(i1); get(i2)`` with ``i1 < i2``, and an unsound index
#: weakening would survive).  Compiled verdicts are served from
#: ``.repro-cache/`` on reruns.
STABILITY_SCOPE_SEQ_LEN = 3


#: The ``--arm`` tiers, weakest first.  Each adds a certificate to the
#: one before it: ``weakened`` compiles the bounded drift-stable
#: weakenings, ``proved`` adds the symbolic prover, ``synthesized`` the
#: CEGIS abduction loop; ``between`` arms the catalog conditions alone.
ARM_TIERS = ("between", "weakened", "proved", "synthesized")


def _compile_stable(registry: Registry, names, jobs=None,
                    cache=True, max_seq_len: int = STABILITY_SCOPE_SEQ_LEN,
                    tier: str = "weakened"):
    """Compile and register the drift-stable conditions of ``tier`` (a
    :data:`ARM_TIERS` entry past ``between``) for ``names``."""
    from .engine import run_stability_compilation
    scope = paper_scope(max_seq_len=max_seq_len)
    reports = run_stability_compilation(
        scope, names=names, registry=registry, jobs=jobs, cache=cache,
        prover=tier in ("proved", "synthesized"),
        abduce=tier == "synthesized")
    for name, report in reports.items():
        registry.register_stable_conditions(
            name, report.stable_conditions(registry.spec(name)),
            replace=True)
    return reports


def _cmd_stability(args: argparse.Namespace, registry: Registry) -> int:
    """Compile drift-stability verdicts and print the per-pair table."""
    from .reporting.tables import stability_table
    names = (args.name,) if args.name else None
    reports = _compile_stable(registry, names, jobs=args.jobs,
                              cache=not args.no_cache,
                              max_seq_len=args.max_seq_len, tier=args.arm)
    print(stability_table(reports))
    print()
    for report in reports.values():
        line = report.summary()
        if report.cache_hits:
            line += (f" [{report.cache_hits}/"
                     f"{len(report.task_timings)} groups cached]")
        print(line)
    if args.arm != "weakened":
        from .prover import prover_fingerprint
        fp = prover_fingerprint()
        countermodels = sum(
            1 for report in reports.values() for pair in report.pairs
            for c in pair.candidates if c.countermodel is not None)
        print(f"prover: backend {fp['backend']} v{fp['prover_version']}"
              f", z3 {'available' if fp['external']['z3'] else 'absent'}"
              f", {countermodels} countermodels")
    if args.arm == "synthesized":
        _print_abduction_trace(reports)
    return 0


def _print_abduction_trace(reports) -> None:
    """The ``--arm synthesized`` trace: per-structure lattice-walk
    statistics, then one compact line per prover-refuted abduced
    candidate with its countermodel (root state, drift, arguments,
    first result) — the loop's debugging surface."""
    for name, report in reports.items():
        stats = [pair.synthesis for pair in report.pairs
                 if pair.synthesis]
        if not stats:
            continue
        print(f"abduce: {name}: "
              f"{sum(s['checked'] for s in stats)} candidates checked, "
              f"{sum(s['pruned'] for s in stats)} pruned by "
              f"countermodels, "
              f"{sum(s['refuted'] for s in stats)} prover-refuted, "
              f"{sum(s['armed'] for s in stats)} armed over "
              f"{sum(s['rounds'] for s in stats)} rounds")
    for name, report in reports.items():
        for pair in report.pairs:
            for c in pair.candidates:
                if c.origin != "abduced" or c.countermodel is None:
                    continue
                cm = c.countermodel
                args1 = ", ".join(cm.get("args1", ()))
                args2 = ", ".join(cm.get("args2", ()))
                print(f"abduce: refuted {name} {pair.pair_label} "
                      f"[{c.text}]: root={cm.get('root')} "
                      f"drift={cm.get('drift')} "
                      f"args=({args1});({args2}) r1={cm.get('r1')}")


def _cmd_run(args: argparse.Namespace, registry: Registry) -> int:
    """Generate a seeded workload and execute it speculatively."""
    from .reporting.tables import (drift_admission_table,
                                   policy_comparison_table,
                                   shard_contention_table,
                                   workload_report_table)
    from .runtime.gatekeeper import POLICIES
    from .workloads import ThroughputHarness, WorkloadSpec
    workload = WorkloadSpec(
        profile=args.profile, distribution=args.distribution,
        transactions=args.txns, ops_per_transaction=args.ops,
        key_space=args.key_space, value_space=args.value_space,
        preload=args.preload, seed=args.seed)
    stable = args.arm != "between"
    if stable:
        _compile_stable(registry, (args.name,), tier=args.arm)
    harness = ThroughputHarness(registry=registry, workers=args.workers,
                                shards=args.shards, adaptive=args.adaptive,
                                stable=stable)
    policies = (args.policy,) if args.policy else POLICIES
    runs = [harness.run_one(args.name, workload, policy=policy,
                            conflict_mode=args.conflict_mode)
            for policy in policies]
    print(workload_report_table(runs))
    if len(runs) > 1:
        print()
        print(policy_comparison_table(runs))
    if args.shard_stats:
        print()
        print(shard_contention_table(runs))
    if stable:
        print()
        print(drift_admission_table(runs))
    if args.txn_stats:
        for run in runs:
            aborted = run.report.ever_aborted
            print(f"\n{run.policy}: per-transaction aborts "
                  f"{run.report.txn_aborts} "
                  f"(ever aborted: {aborted or 'none'})")
    not_serializable = [run for run in runs if not run.serializable]
    for run in not_serializable:
        print(f"run: NOT SERIALIZABLE: {run.summary()}", file=sys.stderr)
    return 1 if not_serializable else 0


def _cmd_bench(args: argparse.Namespace, registry: Registry) -> int:
    if args.suite == "runtime":
        return _cmd_bench_runtime(args, registry)
    if args.suite == "nogil":
        return _cmd_bench_nogil(args, registry)
    if args.suite == "service":
        return _cmd_bench_service(args, registry)
    return _cmd_bench_verify(args, registry)


def _cmd_bench_service(args: argparse.Namespace,
                       registry: Registry) -> int:
    """Client/server admission bench -> ``BENCH_service.json``.

    Starts an admission-server subprocess, runs the four-leg
    decision-identity sweep over every runnable builtin (local,
    single-process served, 2- and 4-worker clusters — all digests must
    be byte-identical), fans out ``--service-workers`` client
    processes for the cross-process throughput/latency leg, scrapes
    ``/metrics``, and SIGTERMs the server (graceful drain).  With
    ``--soak`` it also ramps looping client processes to the
    saturation knee against the single process and against a
    ``--cluster-workers`` cluster; the cluster's knee must strictly
    beat the single process's committed-ops/s.  Gated: identity
    divergence, a client error, a missing metrics counter, zero
    admission RPCs, or a losing cluster knee all fail the bench.
    """
    from .reporting.tables import service_latency_table, service_soak_table
    from .service import bench as service_bench
    from .service.protocol import PROTOCOL_VERSION
    output = args.output or "BENCH_service.json"
    workers = max(2, args.service_workers)
    start = time.perf_counter()
    process, port = service_bench.start_server()
    try:
        identity = service_bench.identity_leg(registry, "127.0.0.1",
                                              port)
        throughput = service_bench.throughput_leg("127.0.0.1", port,
                                                  workers)
        metrics = service_bench.metrics_leg("127.0.0.1", port)
        soak_single = service_bench.soak_leg(
            "127.0.0.1", port, point_seconds=args.soak_seconds,
            time_budget=args.soak_budget) if args.soak else None
    finally:
        service_bench.stop_server(process)
    soak = None
    if args.soak:
        from .service.cluster import start_cluster, stop_cluster
        processes, ports = start_cluster(args.cluster_workers)
        try:
            soak_cluster = service_bench.soak_leg(
                "127.0.0.1", ports[0],
                point_seconds=args.soak_seconds,
                time_budget=args.soak_budget)
        finally:
            stop_cluster(processes)
        soak = {
            "cluster_workers": args.cluster_workers,
            "point_seconds": args.soak_seconds,
            "single": soak_single,
            "cluster": soak_cluster,
            "cluster_beats_single": bool(
                soak_single["knee"] and soak_cluster["knee"]
                and soak_cluster["knee"]["committed_ops_per_second"]
                > soak_single["knee"]["committed_ops_per_second"]),
        }
    payload = {
        "schema": 2,
        "suite": "service",
        "python": sys.version,
        "protocol_version": PROTOCOL_VERSION,
        "shards": service_bench.BENCH_SHARDS,
        "service_workers": workers,
        "cluster_axis": list(service_bench.CLUSTER_AXIS),
        "identity": identity,
        "throughput": throughput,
        "metrics": metrics,
        "soak": soak,
        "wall_seconds": round(time.perf_counter() - start, 4),
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench: service suite, {workers} client processes against "
          f"one server (shards={service_bench.BENCH_SHARDS}, cluster "
          f"axis {list(service_bench.CLUSTER_AXIS)}), wall "
          f"{payload['wall_seconds']:.2f}s -> {output}")
    print(service_latency_table(throughput))
    failures = []
    for name, entry in identity.items():
        state = "identical" if entry["identical"] else "DIVERGED"
        print(f"bench: service identity {name}: {state} across local, "
              f"served, and cluster {list(service_bench.CLUSTER_AXIS)} "
              f"({entry['admission_rpcs']} admission RPCs)")
        if not entry["identical"]:
            failures.append(f"{name}: served or cluster decisions "
                            f"diverged from local ones")
    failures += [f"client worker failed: {err}"
                 for err in throughput["errors"]]
    for entry in throughput["per_worker"]:
        if not entry["serializable"]:
            failures.append(f"worker {entry['worker']} "
                            f"({entry['structure']}): not serializable")
    if throughput["admission_rpcs"] == 0:
        failures.append("no admission RPCs were measured")
    if not metrics["ok"]:
        failures.append(
            f"/metrics scrape failed: status {metrics['status']}, "
            f"missing {', '.join(metrics['missing']) or 'nothing'}")
    else:
        print(f"bench: service /metrics OK ({metrics['lines']} lines, "
              f"all per-shard counters exposed)")
    if soak is not None:
        for label, leg in (("single", soak["single"]),
                           ("cluster", soak["cluster"])):
            print(f"bench: soak {label} "
                  f"({leg['structure']}, {leg['workload']}):")
            print(service_soak_table(leg))
            failures += [f"soak {label}: {err}"
                         for err in leg["errors"]]
            if leg["knee"] is None:
                failures.append(f"soak {label}: no knee was measured")
        if soak["single"]["knee"] and soak["cluster"]["knee"]:
            single_ops = soak["single"]["knee"][
                "committed_ops_per_second"]
            cluster_ops = soak["cluster"]["knee"][
                "committed_ops_per_second"]
            verdict = ("beats" if soak["cluster_beats_single"]
                       else "DOES NOT BEAT")
            print(f"bench: soak knee: cluster "
                  f"({soak['cluster_workers']} workers) "
                  f"{cluster_ops:,.0f} committed ops/s {verdict} "
                  f"single-process {single_ops:,.0f}")
            if not soak["cluster_beats_single"]:
                failures.append(
                    f"soak: cluster knee {cluster_ops:,.0f} committed "
                    f"ops/s <= single-process {single_ops:,.0f}")
    if failures:
        print("bench: service suite failed:\n  "
              + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace, registry: Registry) -> int:
    """Run the admission server in the foreground until SIGTERM/SIGINT
    (then drain).  With ``--workers N > 1`` a shard-partitioned
    cluster is spawned instead: N worker processes on ephemeral ports
    (each owning the shards ``s`` with ``s % N == worker``), the
    partition map installed before any worker serves; pooled clients
    connect to any port and learn the map from ``hello``.  Imports the
    asyncio server lazily so ``serve --help`` and every other
    subcommand stay service-free."""
    if args.workers > 1:
        return _serve_cluster(args)
    from .service.server import run_server

    def announce(port: int) -> None:
        print(f"serve: admission server listening on "
              f"{args.host}:{port} (frames + HTTP /metrics)",
              flush=True)

    run_server(args.host, args.port, registry=registry,
               on_ready=announce, grace=args.grace)
    print("serve: drained and stopped")
    return 0


def _serve_cluster(args: argparse.Namespace) -> int:
    """The ``serve --workers N`` foreground path: spawn the cluster,
    block until SIGTERM/SIGINT, SIGTERM every worker (each drains with
    its own grace period)."""
    import signal
    import threading
    from .service.cluster import start_cluster, stop_cluster
    processes, ports = start_cluster(args.workers, host=args.host)
    stop = threading.Event()
    handlers = {
        signum: signal.signal(signum, lambda *_: stop.set())
        for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        endpoints = ", ".join(f"{args.host}:{port}" for port in ports)
        print(f"serve: admission cluster listening on {endpoints} "
              f"({args.workers} workers, shard s -> worker "
              f"s % {args.workers}; frames + HTTP /metrics per "
              f"worker)", flush=True)
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        stop_cluster(processes)
    print("serve: drained and stopped")
    return 0


def _cmd_bench_runtime(args: argparse.Namespace, registry: Registry) -> int:
    """Throughput-harness sweep -> ``BENCH_runtime.json``."""
    from .reporting.tables import policy_comparison_table
    from .runtime.gatekeeper import POLICIES
    from .workloads import BENCH_WORKLOADS, ThroughputHarness
    output = args.output or "BENCH_runtime.json"
    harness = ThroughputHarness(registry=registry, workers=args.workers,
                                shards=args.shards)
    structures = harness.runnable_structures()
    start = time.perf_counter()
    runs = harness.sweep(structures=structures,
                         workloads=BENCH_WORKLOADS)
    wall = time.perf_counter() - start
    payload = {
        "schema": 1,
        "suite": "runtime",
        "workers": args.workers,
        "shards": args.shards,
        "workloads": {w.label: w.describe() for w in BENCH_WORKLOADS},
        "wall_seconds": round(wall, 4),
        "structures": {},
    }
    for name in structures:
        mine = [r for r in runs if r.structure == name]
        policies = {}
        for policy in POLICIES:
            of_policy = [r for r in mine if r.policy == policy]
            elapsed = sum(r.wall_seconds for r in of_policy)
            operations = sum(r.operations for r in of_policy)
            policies[policy] = {
                "commits": sum(r.commits for r in of_policy),
                "aborts": sum(r.aborts for r in of_policy),
                "operations": operations,
                "conflicts": sum(r.conflicts for r in of_policy),
                "conflict_checks": sum(r.conflict_checks
                                       for r in of_policy),
                "elapsed": round(elapsed, 4),
                "ops_per_second": round(operations / elapsed, 1)
                if elapsed > 0 else 0.0,
            }
        strict_wins = [
            w.label for w in BENCH_WORKLOADS
            if _aborts_of(mine, w.label, "commutativity")
            < _aborts_of(mine, w.label, "read-write")]
        payload["structures"][name] = {
            "elapsed": round(sum(r.wall_seconds for r in mine), 4),
            "operations": sum(r.operations for r in mine),
            "policies": policies,
            "commutativity_beats_read_write_on": strict_wins,
        }
    # The scaling, stability, seed-matrix and abduction sections run
    # (and mutate the payload) before it is written, so the emitted
    # JSON carries their numbers.
    scaling_failed = (args.shards > 1
                      and _bench_scaling_section(payload, registry, args))
    stability_failed = (args.arm != "between"
                        and _bench_stability_section(payload, registry,
                                                     args))
    seeds_failed = (args.seeds > 1
                    and _bench_seed_matrix_section(payload, registry,
                                                   args))
    abduce_failed = (args.arm == "synthesized"
                     and _bench_abduction_section(payload, registry,
                                                  args))
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench: {len(structures)} structures x {len(POLICIES)} "
          f"policies x {len(BENCH_WORKLOADS)} workloads, "
          f"workers={args.workers}, wall {wall:.2f}s -> {output}")
    print(policy_comparison_table(runs))
    failed = (scaling_failed or stability_failed or seeds_failed
              or abduce_failed)
    not_serializable = [r for r in runs if not r.serializable]
    if not_serializable:
        print("bench: NOT SERIALIZABLE: "
              + "; ".join(r.summary() for r in not_serializable),
              file=sys.stderr)
        failed = True
    if args.workers == 1:
        # Deterministic at one worker: the paper-shaped result must hold
        # (commutativity strictly beats read-write somewhere per
        # structure).  Multi-worker abort counts are scheduling-
        # dependent, so the shape is only gated serially.
        missing = [n for n, e in payload["structures"].items()
                   if not e["commutativity_beats_read_write_on"]]
        if missing:
            print("bench: commutativity did not beat read-write on any "
                  f"workload for: {', '.join(missing)}", file=sys.stderr)
            failed = True
    if failed:
        return 1
    if args.baseline:
        return _check_bench_baseline(payload, args.baseline,
                                     args.max_regression)
    return 0


#: The drift-admission gate's pinned workloads: write-heavy hot-key
#: traffic over *preloaded* structures — deep enough that admission
#: checks routinely outlive their verified environment, which is
#: exactly where the PR 4 drift guard turns conservative and the
#: compiled stable conditions earn their keep.  Serial and seeded, so
#: the gate is deterministic; the seed is pinned to traffic in which
#: the prover's observer-pinned conditions (``indexOf;set`` and
#: friends) actually evaluate under drift, so the proved leg
#: measures real admissions rather than an empty intersection.
def _stability_gate_workloads():
    from .workloads import WorkloadSpec
    shape = dict(profile="write-heavy", distribution="hot-key",
                 transactions=12, ops_per_transaction=6, key_space=24,
                 value_space=3, seed=9)
    return (
        ("ArrayList", WorkloadSpec(name="stability-hotkey-arraylist",
                                   preload=20, **shape)),
        ("HashTable", WorkloadSpec(name="stability-hotkey-map",
                                   preload=20, **shape)),
    )


def _bench_stability_section(payload: dict, registry: Registry,
                             args: argparse.Namespace) -> bool:
    """Drift-admission comparison on preloaded hot-key workloads
    (serial, hence deterministic).  Returns True on gate failure: the
    weakened tier must strictly reduce conservative-fallback admissions
    vs the plain PR 4 drift guard on every gated structure, restore at
    least one semantic admission under drift, and keep both executions
    serializable — with flat and sharded decisions identical.

    With ``--arm proved`` (or ``synthesized``) a third variant
    recompiles the conditions with the symbolic prover and repeats the
    gate workloads; across the gate structures in aggregate, the proved
    conditions must strictly increase semantic admissions
    (``stable_hits + proved_hits``) and strictly reduce conservative
    fallbacks vs the weakened tier alone —
    the proved tier arms state-reading candidates the bounded sweep
    passes but refuses to arm, so the gate fails if the proofs buy
    nothing at run time.
    """
    from .reporting.tables import drift_admission_table
    from .workloads import ThroughputHarness
    reports = _compile_stable(registry, None)
    harness = ThroughputHarness(registry=registry)
    section: dict = {
        "policy": "commutativity", "shards": args.shards,
        "compiled": {name: {"stable": report.stable_count,
                            "weakened": report.weakened_count,
                            "fragile": report.fragile_count}
                     for name, report in reports.items()},
        "structures": {}}
    regressions = []
    runs = []
    stable_runs: dict[str, object] = {}
    for name, workload in _stability_gate_workloads():
        plain = harness.run_one(name, workload, policy="commutativity",
                                workers=1, shards=args.shards)
        stable = harness.run_one(name, workload, policy="commutativity",
                                 workers=1, shards=args.shards,
                                 stable=True)
        runs += [plain, stable]
        stable_runs[name] = stable
        section["structures"][name] = {
            "workload": workload.label,
            "plain_fallbacks": plain.drift_fallbacks,
            "stable_fallbacks": stable.drift_fallbacks,
            "stable_hits": stable.stable_hits,
            "plain_aborts": plain.aborts,
            "stable_aborts": stable.aborts,
            "undo_refusals": stable.undo_refusals,
        }
        if not (plain.serializable and stable.serializable):
            regressions.append(f"{name}: not serializable")
            continue
        if stable.stable_hits == 0:
            regressions.append(f"{name}: no semantic admission was "
                               f"restored under drift")
        if stable.drift_fallbacks >= plain.drift_fallbacks:
            regressions.append(
                f"{name}: {stable.drift_fallbacks} conservative "
                f"fallbacks with --arm weakened >= "
                f"{plain.drift_fallbacks} without")
        if args.shards > 1:
            flat = harness.run_one(name, workload,
                                   policy="commutativity", workers=1,
                                   shards=1, stable=True)
            if (flat.commits, flat.aborts, flat.report.commit_order) \
                    != (stable.commits, stable.aborts,
                        stable.report.commit_order):
                regressions.append(f"{name}: flat and sharded stable "
                                   f"decisions diverged")
    if args.arm in ("proved", "synthesized"):
        regressions += _bench_prover_gate(section, registry, harness,
                                          args, stable_runs, runs)
    payload["stability"] = section
    print(drift_admission_table(runs))
    for name, entry in section["structures"].items():
        line = (f"bench: stability {name}: fallbacks "
                f"{entry['plain_fallbacks']} -> "
                f"{entry['stable_fallbacks']}"
                f", {entry['stable_hits']} stable hits")
        if "proved_hits" in entry:
            line += (f"; with prover: fallbacks "
                     f"{entry['proved_fallbacks']}, "
                     f"{entry['proved_stable_hits']} stable + "
                     f"{entry['proved_hits']} proved hits")
        print(line)
    if regressions:
        print("bench: drift-stable admission gate failed:\n  "
              + "\n  ".join(regressions), file=sys.stderr)
        return True
    return False


def _bench_prover_gate(section: dict, registry: Registry, harness,
                       args: argparse.Namespace, stable_runs: dict,
                       runs: list) -> list[str]:
    """The proved leg of the stability gate (see above):
    recompile with symbolic proofs, rerun the gate workloads, and
    enforce the aggregate strict improvements."""
    proved_reports = _compile_stable(registry, None, tier="proved")
    section["prover"] = {
        name: {"proved": report.proved_count,
               "weakened": report.weakened_count}
        for name, report in proved_reports.items()}
    regressions: list[str] = []
    base_hits = base_fallbacks = hits = fallbacks = 0
    for name, workload in _stability_gate_workloads():
        proved = harness.run_one(name, workload, policy="commutativity",
                                 workers=1, shards=args.shards,
                                 stable=True)
        runs.append(proved)
        stable = stable_runs[name]
        base_hits += stable.stable_hits + stable.proved_hits
        base_fallbacks += stable.drift_fallbacks
        hits += proved.stable_hits + proved.proved_hits
        fallbacks += proved.drift_fallbacks
        section["structures"][name].update({
            "proved_fallbacks": proved.drift_fallbacks,
            "proved_stable_hits": proved.stable_hits,
            "proved_hits": proved.proved_hits,
            "proved_aborts": proved.aborts,
        })
        if not proved.serializable:
            regressions.append(f"{name}: not serializable with "
                               "--arm proved")
        if args.shards > 1:
            flat = harness.run_one(name, workload,
                                   policy="commutativity", workers=1,
                                   shards=1, stable=True)
            if (flat.commits, flat.aborts, flat.report.commit_order) \
                    != (proved.commits, proved.aborts,
                        proved.report.commit_order):
                regressions.append(f"{name}: flat and sharded proved "
                                   f"decisions diverged")
    if hits <= base_hits:
        regressions.append(
            f"prover: {hits} semantic admissions with --arm proved <= "
            f"{base_hits} with --arm weakened")
    if fallbacks >= base_fallbacks:
        regressions.append(
            f"prover: {fallbacks} conservative fallbacks with --arm "
            f"proved >= {base_fallbacks} with --arm weakened")
    return regressions


#: The abduction gate's custom-structure leg: hot-key write-heavy
#: traffic over the projector-less RegisterCell — repeated same-value
#: overwrites are exactly what the abduced ``(v1 = v2) & (v2 = r1)``
#: conditions admit, while the routerless conservative fallback admits
#: nothing, so the leg guarantees the aggregate gate is strict.
def _abduction_gate_workloads(registry: Registry):
    from .abduction.demo import DEMO_FAMILY, register_demo_structure
    from .workloads import WorkloadSpec
    if DEMO_FAMILY not in registry.names():
        register_demo_structure(registry)
    demo = WorkloadSpec(name="abduction-hotkey-register",
                        profile="write-heavy", distribution="hot-key",
                        transactions=12, ops_per_transaction=6,
                        key_space=24, value_space=3, seed=9)
    return _stability_gate_workloads() + ((DEMO_FAMILY, demo),)


def _served_run(registry: Registry, harness, name, workload, shards):
    """One stable workload run whose admission decisions come from an
    in-thread admission server *sharing this registry* — so the served
    drift guard arms exactly the locally compiled conditions, abduced
    tiers included, and the local==served digest identity is a real
    invariant rather than a recompilation coincidence."""
    import asyncio
    import threading
    from .service.client import ServiceBackend
    from .service.server import AdmissionServer
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever,
                              name="abduction-gate-server", daemon=True)
    thread.start()

    def call(coro, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)

    server = AdmissionServer("127.0.0.1", 0, registry=registry)
    call(server.start())
    serving = asyncio.run_coroutine_threadsafe(server.serve_forever(),
                                               loop)
    try:
        backend = ServiceBackend(server.host, server.port,
                                 registry=registry)
        try:
            return harness.run_one(name, workload,
                                   policy="commutativity", workers=1,
                                   shards=shards, stable=True,
                                   backend=backend)
        finally:
            backend.close()
    finally:
        serving.cancel()
        call(server.shutdown(grace=1.0))
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        loop.close()


def _bench_abduction_section(payload: dict, registry: Registry,
                             args: argparse.Namespace) -> bool:
    """The ``--arm synthesized`` gate: recompile with the CEGIS
    abduction loop and rerun the stability-gate workloads plus the
    projector-less custom-structure leg.  Returns True on gate failure
    — across the legs in aggregate, the abduced conditions must
    strictly increase the armed semantic admission *rate* (``stable +
    proved + synthesized`` hits per drift check — a rate, not a count,
    because the weaker abduced guard admits more operations early,
    diverging the retry trace and with it the raw check volume) and
    strictly reduce conservative fallbacks vs the proved tier; every
    leg must stay serializable with byte-identical decision digests
    flat==sharded and local==served; and a warm rerun must serve every
    ABDUCTION task from the engine cache."""
    from .engine.tasks import ABDUCTION
    from .reporting.tables import drift_admission_table
    from .workloads import ThroughputHarness
    workloads = _abduction_gate_workloads(registry)
    names = tuple(name for name, _ in workloads)
    harness = ThroughputHarness(registry=registry)
    regressions: list[str] = []
    # Baseline: the full pre-abduction pipeline (the proved tier).
    _compile_stable(registry, names, tier="proved")
    baselines = {name: harness.run_one(name, workload,
                                       policy="commutativity",
                                       workers=1, shards=args.shards,
                                       stable=True)
                 for name, workload in workloads}
    # Abduced: same workloads with the CEGIS loop armed on top.
    reports = _compile_stable(registry, names, tier="synthesized")
    section: dict = {
        "policy": "commutativity", "shards": args.shards,
        "compiled": {name: {"synthesized": report.synthesized_count,
                            "proved": report.proved_count,
                            "weakened": report.weakened_count,
                            "fragile": report.fragile_count}
                     for name, report in reports.items()},
        "structures": {}}
    runs = []
    base_hits = base_fallbacks = hits = fallbacks = 0
    base_checks = checks = 0
    for name, workload in workloads:
        abduced = harness.run_one(name, workload,
                                  policy="commutativity", workers=1,
                                  shards=args.shards, stable=True)
        runs += [baselines[name], abduced]
        base = baselines[name]
        base_hits += (base.stable_hits + base.proved_hits
                      + base.synthesized_hits)
        base_fallbacks += base.drift_fallbacks
        base_checks += base.drift_checks
        hits += (abduced.stable_hits + abduced.proved_hits
                 + abduced.synthesized_hits)
        fallbacks += abduced.drift_fallbacks
        checks += abduced.drift_checks
        # Decision-identity legs: the sharded and served guards must
        # reproduce the local flat run's decisions byte-for-byte.
        flat = (abduced if args.shards == 1
                else harness.run_one(name, workload,
                                     policy="commutativity", workers=1,
                                     shards=1, stable=True))
        sharded = (abduced if args.shards > 1
                   else harness.run_one(name, workload,
                                        policy="commutativity",
                                        workers=1, shards=2,
                                        stable=True))
        served = _served_run(registry, harness, name, workload,
                             args.shards)
        flat_sharded = (flat.report.decision_digest()
                        == sharded.report.decision_digest())
        local_served = (abduced.report.decision_digest()
                        == served.report.decision_digest())
        section["structures"][name] = {
            "workload": workload.label,
            "baseline_hits": (base.stable_hits + base.proved_hits
                              + base.synthesized_hits),
            "baseline_fallbacks": base.drift_fallbacks,
            "abduced_stable_hits": abduced.stable_hits,
            "abduced_proved_hits": abduced.proved_hits,
            "synthesized_hits": abduced.synthesized_hits,
            "abduced_fallbacks": abduced.drift_fallbacks,
            "fallback_admits": abduced.fallback_admits,
            "flat_sharded_identical": flat_sharded,
            "local_served_identical": local_served,
        }
        if not (base.serializable and abduced.serializable
                and served.serializable):
            regressions.append(f"{name}: not serializable")
        if not flat_sharded:
            regressions.append(f"{name}: flat and sharded abduced "
                               f"decisions diverged")
        if not local_served:
            regressions.append(f"{name}: local and served abduced "
                               f"decisions diverged")
    # Warm rerun: every ABDUCTION task must come from the engine cache.
    warm = _compile_stable(registry, names, tier="synthesized")
    abduction_timings = [t for report in warm.values()
                         for t in report.task_timings
                         if t.kind == ABDUCTION]
    warm_cached = bool(abduction_timings) and all(
        t.cached for t in abduction_timings)
    base_rate = base_hits / base_checks if base_checks else 0.0
    rate = hits / checks if checks else 0.0
    section["baseline_semantic_hits"] = base_hits
    section["abduced_semantic_hits"] = hits
    section["baseline_hit_rate"] = round(base_rate, 4)
    section["abduced_hit_rate"] = round(rate, 4)
    section["armed_hits_delta"] = round(rate - base_rate, 4)
    section["fallback_delta"] = fallbacks - base_fallbacks
    section["digests_identical"] = all(
        entry["flat_sharded_identical"] and
        entry["local_served_identical"]
        for entry in section["structures"].values())
    section["warm_cache_served"] = warm_cached
    payload["abduction_gate"] = section
    if rate <= base_rate:
        regressions.append(
            f"abduce: {rate:.2%} armed semantic admission rate with "
            f"--arm synthesized <= {base_rate:.2%} with --arm proved")
    if fallbacks >= base_fallbacks:
        regressions.append(
            f"abduce: {fallbacks} conservative fallbacks with --arm "
            f"synthesized >= {base_fallbacks} with --arm proved")
    if not warm_cached:
        regressions.append("abduce: warm rerun did not serve every "
                           "ABDUCTION task from .repro-cache")
    print(drift_admission_table(runs))
    for name, entry in section["structures"].items():
        print(f"bench: abduction {name}: hits "
              f"{entry['baseline_hits']} -> "
              f"{entry['abduced_stable_hits'] + entry['abduced_proved_hits'] + entry['synthesized_hits']} "
              f"({entry['synthesized_hits']} synthesized), fallbacks "
              f"{entry['baseline_fallbacks']} -> "
              f"{entry['abduced_fallbacks']}, digests "
              f"flat==sharded={entry['flat_sharded_identical']} "
              f"local==served={entry['local_served_identical']}")
    if regressions:
        print("bench: abduction gate failed:\n  "
              + "\n  ".join(regressions), file=sys.stderr)
        return True
    return False


#: Repetitions per nogil scaling cell (informational; best run kept).
NOGIL_REPEATS = 2

#: The nogil sweep's axes: worker-thread and shard counts.  Purely
#: informational — free-threaded speedups depend on the host — but the
#: report gives the 3.13t CI leg a scaling curve to publish.
NOGIL_WORKERS = (1, 2, 4)
NOGIL_SHARDS = (1, 8)
NOGIL_STRUCTURES = ("HashSet", "ArrayList")


def _cmd_bench_nogil(args: argparse.Namespace, registry: Registry) -> int:
    """Free-threaded scaling sweep -> ``BENCH_nogil.json``.

    Runs admission (compiled checks, as everywhere) under blocking
    conflict resolution across worker-thread and shard axes and
    records committed-operation throughput plus whether the
    interpreter actually ran free-threaded (``sys._is_gil_enabled()``,
    absent before 3.13).  Informational: the only failure is a
    non-serializable execution — thread-scaling numbers are
    host-dependent and never gated."""
    from .workloads import SCALING_WORKLOADS, ThroughputHarness
    output = args.output or "BENCH_nogil.json"
    gil_probe = getattr(sys, "_is_gil_enabled", None)
    harness = ThroughputHarness(registry=registry, max_rounds=500_000)
    structures = [name for name in NOGIL_STRUCTURES
                  if name in harness.runnable_structures()]
    workloads = SCALING_WORKLOADS[:2]
    payload: dict = {
        "schema": 1,
        "suite": "nogil",
        "python": sys.version,
        "gil_enabled": gil_probe() if gil_probe is not None else None,
        "workers_axis": list(NOGIL_WORKERS),
        "shards_axis": list(NOGIL_SHARDS),
        "policy": "commutativity",
        "conflict_mode": "block",
        "workloads": {w.label: w.describe() for w in workloads},
        "structures": {},
    }
    broken = []
    start = time.perf_counter()
    for name in structures:
        entry: dict = {}
        for workload in workloads:
            cells: dict = {}
            for workers in NOGIL_WORKERS:
                for shards in NOGIL_SHARDS:
                    throughput = 0.0
                    for _ in range(NOGIL_REPEATS):
                        run = harness.run_one(
                            name, workload, policy="commutativity",
                            conflict_mode="block", workers=workers,
                            shards=shards)
                        if not run.serializable:
                            broken.append(f"{name}/{workload.label}/"
                                          f"w{workers}s{shards}")
                            continue
                        throughput = max(
                            throughput, run.committed_ops_per_second)
                    cells[f"w{workers}s{shards}"] = round(throughput, 1)
            entry[workload.label] = cells
        payload["structures"][name] = entry
    payload["wall_seconds"] = round(time.perf_counter() - start, 4)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    gil_note = {True: "GIL on", False: "free-threaded",
                None: "pre-3.13"}[payload["gil_enabled"]]
    print(f"bench: nogil sweep ({gil_note}) over "
          f"{len(structures)} structures x {len(workloads)} workloads "
          f"x workers {list(NOGIL_WORKERS)} x shards "
          f"{list(NOGIL_SHARDS)}, wall "
          f"{payload['wall_seconds']:.2f}s -> {output}")
    for name, entry in payload["structures"].items():
        for label, cells in entry.items():
            curve = ", ".join(f"{k}={v:,.0f}"
                              for k, v in sorted(cells.items()))
            print(f"bench: nogil {name} [{label}]: {curve}")
    if broken:
        print("bench: nogil runs NOT SERIALIZABLE: "
              + "; ".join(broken), file=sys.stderr)
        return 1
    return 0


def _bench_seed_matrix_section(payload: dict, registry: Registry,
                               args: argparse.Namespace) -> bool:
    """The ``--seeds N`` matrix: rerun the bench sweep over N seeds and
    report p50/p95 percentiles per (structure, workload, policy).
    Returns True on gate failure (a non-serializable cell)."""
    from .reporting.tables import percentile, seed_matrix_table
    from .runtime.gatekeeper import POLICIES
    from .workloads import BENCH_WORKLOADS, ThroughputHarness
    harness = ThroughputHarness(registry=registry, workers=args.workers,
                                shards=args.shards)
    structures = harness.runnable_structures()
    runs = [harness.run_one(structure, workload.with_(
                seed=workload.seed + offset), policy=policy)
            for structure in structures
            for workload in BENCH_WORKLOADS
            for policy in POLICIES
            for offset in range(args.seeds)]
    section: dict = {"seeds": args.seeds, "structures": {}}
    for run in runs:
        cell = section["structures"] \
            .setdefault(run.structure, {}) \
            .setdefault(run.workload.label, {}) \
            .setdefault(run.policy, {"ops_per_second": [], "aborts": []})
        cell["ops_per_second"].append(round(run.ops_per_second, 1))
        cell["aborts"].append(run.aborts)
    for by_workload in section["structures"].values():
        for by_policy in by_workload.values():
            for cell in by_policy.values():
                cell["ops_per_second_p50"] = percentile(
                    cell["ops_per_second"], 50)
                cell["ops_per_second_p95"] = percentile(
                    cell["ops_per_second"], 95)
                cell["aborts_p50"] = percentile(cell["aborts"], 50)
                cell["aborts_p95"] = percentile(cell["aborts"], 95)
    payload["seed_matrix"] = section
    print(seed_matrix_table(runs))
    broken = [run.summary() for run in runs if not run.serializable]
    if broken:
        print("bench: seed matrix NOT SERIALIZABLE: "
              + "; ".join(broken), file=sys.stderr)
        return True
    return False


#: Repetitions per (structure, workload, config) scaling cell; the best
#: run is kept, damping scheduler noise in the threaded comparison.
SCALING_REPEATS = 2


def _bench_scaling_section(payload: dict, registry: Registry,
                           args: argparse.Namespace) -> bool:
    """Flat-vs-sharded committed-operation throughput at ``workers>=4``
    under blocking conflict resolution (no abort storms, so wall clock
    measures admission work).  Returns True on gate failure: the sharded
    gatekeeper must beat the flat log on at least one workload per
    specification family."""
    from .workloads import SCALING_WORKLOADS, ThroughputHarness
    workers = max(args.workers, 4)
    shards = args.shards
    harness = ThroughputHarness(registry=registry, max_rounds=500_000)
    section: dict = {"workers": workers, "shards": shards,
                     "policy": "commutativity", "conflict_mode": "block",
                     "workloads": {w.label: w.describe()
                                   for w in SCALING_WORKLOADS},
                     "structures": {}}
    family_wins: dict[str, list[str]] = {}
    broken = []
    for name in harness.runnable_structures():
        family = registry.family_of(name)
        family_wins.setdefault(family, [])
        entry: dict = {"family": family, "workloads": {}, "beats_flat_on": []}
        for workload in SCALING_WORKLOADS:
            best = {}
            for mode, mode_shards in (("flat", 1), ("sharded", shards)):
                throughput = 0.0
                for _ in range(SCALING_REPEATS):
                    run = harness.run_one(
                        name, workload, policy="commutativity",
                        conflict_mode="block", workers=workers,
                        shards=mode_shards)
                    if not run.serializable:
                        # An invalid execution contributes a failure,
                        # never a throughput sample.
                        label = f"{name}/{workload.label}/{mode}"
                        if label not in broken:
                            broken.append(label)
                        continue
                    throughput = max(throughput,
                                     run.committed_ops_per_second)
                best[mode] = throughput
            entry["workloads"][workload.label] = {
                "flat_committed_ops_per_second": round(best["flat"], 1),
                "sharded_committed_ops_per_second":
                    round(best["sharded"], 1),
            }
            if best["sharded"] > best["flat"]:
                entry["beats_flat_on"].append(workload.label)
                family_wins[family].append(workload.label)
        section["structures"][name] = entry
    payload["scaling"] = section
    losing = sorted(f for f, wins in family_wins.items() if not wins)
    for name, entry in section["structures"].items():
        print(f"bench: scaling {name}: sharded beats flat on "
              f"{', '.join(entry['beats_flat_on']) or 'NOTHING'}")
    if broken:
        print("bench: scaling runs NOT SERIALIZABLE: "
              + "; ".join(broken), file=sys.stderr)
        return True
    if losing:
        print(f"bench: sharded gatekeeper (shards={shards}, "
              f"workers={workers}) never beat the flat log for "
              f"families: {', '.join(losing)}", file=sys.stderr)
        return True
    return False


def _aborts_of(runs, workload_label: str, policy: str) -> int:
    return sum(r.aborts for r in runs
               if r.workload.label == workload_label
               and r.policy == policy)


def _cmd_bench_verify(args: argparse.Namespace, registry: Registry) -> int:
    """Cold per-structure verification timings -> ``BENCH_verify.json``."""
    scope = paper_scope(max_seq_len=args.max_seq_len)
    output = args.output or "BENCH_verify.json"
    start = time.perf_counter()
    reports = verify_all(scope, backend=args.backend, registry=registry,
                         jobs=args.jobs, cache=False)
    wall = time.perf_counter() - start
    payload = {
        "schema": 1,
        "suite": "verify",
        "engine_version": ENGINE_VERSION,
        "backend": args.backend,
        "jobs": resolve_jobs(args.jobs),
        "scope": {"objects": list(scope.objects),
                  "values": list(scope.values),
                  "ints": list(scope.ints),
                  "max_seq_len": scope.max_seq_len},
        "wall_seconds": round(wall, 4),
        "structures": {},
    }
    for name, report in reports.items():
        slowest = report.slowest_task
        payload["structures"][name] = {
            "conditions": report.condition_count,
            "methods": report.method_count,
            "elapsed": round(report.elapsed, 4),
            "tasks": len(report.task_timings),
            "slowest_task": ({"label": slowest.label,
                              "elapsed": round(slowest.elapsed, 4)}
                             if slowest is not None else None),
            "all_verified": report.all_verified,
        }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench: {len(reports)} structures via {args.backend} backend, "
          f"jobs={payload['jobs']}, wall {wall:.2f}s -> {output}")
    print(task_timing_table(reports))
    unverified = [n for n, r in reports.items() if not r.all_verified]
    if unverified:
        print(f"bench: FAILED obligations in {', '.join(unverified)}",
              file=sys.stderr)
        return 1
    if args.baseline:
        return _check_bench_baseline(payload, args.baseline,
                                     args.max_regression)
    return 0


def _check_bench_baseline(payload: dict, baseline_path: str,
                          max_regression: float) -> int:
    """Fail when any structure regresses ``max_regression``x vs baseline."""
    try:
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"bench: unreadable baseline {baseline_path}: {exc}",
              file=sys.stderr)
        return 2
    for key in ("suite", "backend", "scope", "workloads"):
        recorded = baseline.get(key)
        if recorded is not None and recorded != payload.get(key):
            print(f"bench: baseline {baseline_path} is incompatible: "
                  f"its {key} is {recorded!r}, this run used "
                  f"{payload.get(key)!r} (regenerate the baseline)",
                  file=sys.stderr)
            return 2
    baseline_structures = baseline.get("structures", {})
    regressions = []
    for name, entry in baseline_structures.items():
        measured = payload["structures"].get(name)
        if measured is None:
            # A structure the baseline gates must not silently vanish
            # from the sweep (unregistered or renamed).
            regressions.append(f"{name}: in baseline but missing from "
                               f"this run")
            continue
        try:
            recorded = float(entry["elapsed"])
        except (KeyError, TypeError, ValueError):
            print(f"bench: malformed baseline entry for {name} in "
                  f"{baseline_path}", file=sys.stderr)
            return 2
        allowed = max_regression * max(recorded, BENCH_FLOOR_SECONDS)
        if measured["elapsed"] > allowed:
            regressions.append(
                f"{name}: {measured['elapsed']:.3f}s > "
                f"{max_regression:g}x baseline {recorded:.3f}s")
    ungated = sorted(set(payload["structures"]) - set(baseline_structures))
    if ungated:
        print(f"bench: not in baseline (regenerate to gate them): "
              f"{', '.join(ungated)}", file=sys.stderr)
    if regressions:
        print("bench: verification time regressions vs "
              f"{baseline_path}:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench: within {max_regression:g}x of baseline {baseline_path}")
    return 0


def _cmd_tables(args: argparse.Namespace, registry: Registry) -> int:
    tables = TableIndex.all()
    wanted = [args.table] if args.table else list(tables)
    for table_id in wanted:
        render = tables.get(table_id)
        if render is None:
            print(f"unknown table {table_id!r}; "
                  f"choose from {', '.join(tables)}", file=sys.stderr)
            return 2
        print(f"=== Table {table_id} ===")
        result = render()
        if isinstance(result, tuple):  # table 5.8 returns (text, reports)
            result = result[0]
        print(result)
        print()
    return 0


def _cmd_show(args: argparse.Namespace, registry: Registry) -> int:
    kinds = [Kind(args.kind)] if args.kind else list(Kind)
    for kind in kinds:
        cond = registry.condition(args.name, args.m1, args.m2, kind)
        print(f"[{kind}] {cond.text}")
        if args.methods:
            for method in generate_methods([cond]):
                print()
                print(method.render_java())
        print()
    return 0


def _cmd_list(args: argparse.Namespace, registry: Registry) -> int:
    from .reporting.tables import _format_table
    headers = ["name", "family", "conditions", "inverses", "implementation"]
    rows = [[entry.name, entry.family, str(entry.condition_count),
             str(entry.inverse_count),
             entry.implementation.__name__ if entry.implementation else "-"]
            for entry in registry.describe()]
    print(_format_table(headers, rows))
    inverse_total = sum(len(registry.inverses(family))
                        for family in registry.families())
    print(f"\n{len(rows)} structures, "
          f"{registry.total_condition_count()} conditions, "
          f"{inverse_total} inverse operations")
    return 0


def _shard_count(text: str) -> int:
    """argparse type for ``--shards``: a power of two in [1, 64], with
    the CLI's friendly-error convention instead of a traceback."""
    from .runtime.sharding import check_shard_count
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    try:
        check_shard_count(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _add_engine_options(parser: argparse.ArgumentParser,
                        no_cache: bool = True) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS or 1; "
                             "0 = all CPUs)")
    if no_cache:
        parser.add_argument("--no-cache", action="store_true",
                            help="ignore and don't update .repro-cache/")


def build_parser(registry: Registry | None = None) -> argparse.ArgumentParser:
    registry = registry if registry is not None else DEFAULT_REGISTRY
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify commutativity conditions")
    verify.add_argument("--name", choices=registry.names())
    verify.add_argument("--backend", default="symbolic",
                        choices=("symbolic", "bounded"))
    verify.add_argument("--max-seq-len", type=int, default=3)
    _add_engine_options(verify)
    verify.set_defaults(func=_cmd_verify)

    inverses = sub.add_parser("inverses", help="verify inverse operations")
    inverses.add_argument("--max-seq-len", type=int, default=3)
    _add_engine_options(inverses)
    inverses.set_defaults(func=_cmd_inverses)

    from .runtime.gatekeeper import POLICIES
    from .workloads.spec import DISTRIBUTIONS, PROFILES

    run = sub.add_parser(
        "run", help="generate a workload and execute it speculatively")
    run.add_argument("--name", required=True, choices=registry.names())
    run.add_argument("--policy", choices=POLICIES,
                     help="one policy (default: all three + comparison)")
    run.add_argument("--profile", default="mixed",
                     choices=tuple(PROFILES))
    run.add_argument("--distribution", default="uniform",
                     choices=tuple(DISTRIBUTIONS))
    run.add_argument("--txns", type=int, default=8,
                     help="transaction count (default 8)")
    run.add_argument("--ops", type=int, default=6,
                     help="operations per transaction (default 6)")
    from .runtime.adaptive import ADAPTIVE_POLICIES

    run.add_argument("--key-space", type=int, default=16)
    run.add_argument("--value-space", type=int, default=4)
    run.add_argument("--preload", type=int, default=0,
                     help="YCSB-style load phase: prepopulate the "
                          "structure with this many elements")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workers", type=int, default=1,
                     help="executor worker threads (1 = deterministic)")
    run.add_argument("--shards", type=_shard_count, default=1,
                     help="conflict-manager log shards (1 = flat log; "
                          "powers of two)")
    run.add_argument("--adaptive", choices=ADAPTIVE_POLICIES,
                     help="contention-adaptive conflict response "
                          "(default: none)")
    run.add_argument("--conflict-mode", default="abort",
                     choices=("abort", "block"))
    run.add_argument("--arm", default="between", choices=ARM_TIERS,
                     help="admission tier to arm: between (catalog "
                          "conditions only, the default); weakened "
                          "compiles drift-stable conditions first and "
                          "arms the drift guard with them; proved adds "
                          "the symbolic prover's state-reading "
                          "conditions; synthesized adds the CEGIS "
                          "abduction loop's")
    run.add_argument("--txn-stats", action="store_true",
                     help="print per-transaction abort counts")
    run.add_argument("--shard-stats", action="store_true",
                     help="print the per-shard contention table")
    run.set_defaults(func=_cmd_run)

    stability = sub.add_parser(
        "stability",
        help="compile between conditions into drift-stability verdicts")
    stability.add_argument("--name", choices=registry.names())
    stability.add_argument("--max-seq-len", type=int,
                           default=STABILITY_SCOPE_SEQ_LEN)
    stability.add_argument("--arm", default="weakened",
                           choices=ARM_TIERS[1:],
                           help="weakened: the bounded drift-stable "
                                "sweep (default); proved: discharge "
                                "symbolic proof obligations too, so "
                                "proved pairs arm state-reading "
                                "candidates the bounded sweep refuses; "
                                "synthesized: run the CEGIS abduction "
                                "loop too and print the lattice-walk "
                                "trace with per-refutation "
                                "countermodels")
    _add_engine_options(stability)
    stability.set_defaults(func=_cmd_stability)

    bench = sub.add_parser(
        "bench",
        help="regression-gated benchmarks (verification or runtime)")
    bench.add_argument("--suite", default="verify",
                       choices=("verify", "runtime", "nogil", "service"),
                       help="verify: cold verification sweep; runtime: "
                            "workload-throughput sweep; nogil: "
                            "informational free-threaded scaling sweep; "
                            "service: client/server admission bench "
                            "(identity + latency + metrics gates)")
    bench.add_argument("--backend", default="symbolic",
                       choices=("symbolic", "bounded"))
    bench.add_argument("--max-seq-len", type=int, default=3)
    _add_engine_options(bench, no_cache=False)  # bench is always cold
    bench.add_argument("--workers", type=int, default=1,
                       help="executor worker threads for --suite runtime")
    bench.add_argument("--shards", type=_shard_count, default=1,
                       help="conflict-manager shards for --suite "
                            "runtime (powers of two); > 1 adds the "
                            "flat-vs-sharded scaling comparison")
    bench.add_argument("--arm", default="between", choices=ARM_TIERS,
                       help="--suite runtime: weakened adds the "
                            "drift-stable admission section and its "
                            "gate; proved adds the prover leg to it "
                            "(proved admissions must strictly beat the "
                            "weakened tier); synthesized adds the "
                            "abduction gate (synthesized conditions "
                            "must strictly beat the proved tier on "
                            "semantic admissions and fallbacks, with "
                            "flat==sharded and local==served decision "
                            "digests, warm-cache served reruns)")
    bench.add_argument("--seeds", type=int, default=1,
                       help="--suite runtime: rerun the sweep over this "
                            "many seeds and report p50/p95 percentiles")
    bench.add_argument("--service-workers", type=int, default=2,
                       help="--suite service: client worker processes "
                            "against the one server (min 2)")
    bench.add_argument("--soak", action="store_true",
                       help="--suite service: ramp looping client "
                            "processes to the saturation knee, single-"
                            "process vs --cluster-workers cluster; "
                            "the cluster knee must strictly beat the "
                            "single process's committed-ops/s")
    bench.add_argument("--cluster-workers", type=int, default=2,
                       help="--suite service, with --soak: worker "
                            "processes in the soaked cluster "
                            "(default 2)")
    bench.add_argument("--soak-seconds", type=float, default=2.0,
                       help="--suite service, with --soak: seconds "
                            "each ramp point keeps its clients "
                            "running (default 2.0)")
    bench.add_argument("--soak-budget", type=float, default=300.0,
                       help="--suite service, with --soak: wall-clock "
                            "cap per soak ramp in seconds; the ramp "
                            "is truncated past it (default 300)")
    bench.add_argument("--output", default=None,
                       help="where to write the timing report (default "
                            "BENCH_<suite>.json)")
    bench.add_argument("--baseline", default=None,
                       help="baseline BENCH_<suite>.json to gate against")
    bench.add_argument("--max-regression", type=float, default=2.0,
                       help="fail when a structure exceeds this multiple "
                            "of its baseline time (default 2.0)")
    bench.set_defaults(func=_cmd_bench)

    tables = sub.add_parser("tables", help="print the evaluation tables")
    tables.add_argument("--table", help="e.g. 5.2 (default: all)")
    tables.set_defaults(func=_cmd_tables)

    show = sub.add_parser("show", help="print one condition + methods")
    show.add_argument("--name", required=True)
    show.add_argument("--m1", required=True)
    show.add_argument("--m2", required=True)
    show.add_argument("--kind", choices=[k.value for k in Kind])
    show.add_argument("--methods", action="store_true")
    show.set_defaults(func=_cmd_show)

    serve = sub.add_parser(
        "serve",
        help="run the admission server (frame RPCs + HTTP /metrics "
             "on one port) until SIGTERM, then drain")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7471,
                       help="TCP port (0 = ephemeral; default 7471)")
    serve.add_argument("--grace", type=float, default=5.0,
                       help="drain grace period in seconds on shutdown")
    serve.add_argument("--workers", type=int, default=1,
                       help="shard-partitioned cluster worker "
                            "processes on ephemeral ports (1 = one "
                            "in-process server on --port)")
    serve.set_defaults(func=_cmd_serve)

    list_cmd = sub.add_parser("list", help="list registered data structures")
    list_cmd.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None,
         registry: Registry | None = None) -> int:
    registry = registry if registry is not None else DEFAULT_REGISTRY
    args = build_parser(registry).parse_args(argv)
    try:
        return args.func(args, registry)
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
