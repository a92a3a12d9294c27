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
- ``bench [--suite verify|runtime|service] [--shards S] [--arm TIER]``
  — the timing gates, plus the one drift-stable gate whose
  ``--shards 4`` row is red (the deterministic gates are the tier-1
  table ``tests/test_gates.py``).  ``verify``: time a cold
  verification sweep per structure into ``BENCH_verify.json``;
  ``runtime``: sweep the throughput harness over every structure and
  policy into ``BENCH_runtime.json`` (``--shards S > 1`` adds the
  flat-vs-sharded scaling gate, ``--arm weakened`` the drift-admission
  gate on preloaded hot-key workloads); ``service``: the soak into
  ``BENCH_service.json``, whose saturation-knee gate requires a
  multi-worker cluster to out-knee the single process; verify/runtime
  optionally gate against a checked-in baseline;
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
    if args.suite == "service":
        return _cmd_bench_service(args, registry)
    return _cmd_bench_verify(args, registry)


def _cmd_bench_service(args: argparse.Namespace,
                       registry: Registry) -> int:
    """The service soak -> ``BENCH_service.json``.

    Ramps looping client processes to the saturation knee against an
    admission-server subprocess, then against a ``--cluster-workers``
    cluster, and SIGTERMs each (graceful drain).  The cluster's knee
    must strictly beat the single process's committed-ops/s.  Gated: a
    client error, a missing knee or a losing cluster knee fails the
    bench.
    """
    from .reporting.tables import service_soak_table
    from .service import bench as service_bench
    from .service.cluster import start_cluster, stop_cluster
    from .service.protocol import PROTOCOL_VERSION
    output = args.output or "BENCH_service.json"
    start = time.perf_counter()
    process, port = service_bench.start_server()
    try:
        single = service_bench.soak_leg(
            "127.0.0.1", port, point_seconds=args.soak_seconds,
            time_budget=args.soak_budget)
    finally:
        service_bench.stop_server(process)
    processes, ports = start_cluster(args.cluster_workers)
    try:
        cluster = service_bench.soak_leg(
            "127.0.0.1", ports[0], point_seconds=args.soak_seconds,
            time_budget=args.soak_budget)
    finally:
        stop_cluster(processes)
    soak = {
        "cluster_workers": args.cluster_workers,
        "point_seconds": args.soak_seconds,
        "single": single,
        "cluster": cluster,
        "cluster_beats_single": bool(
            single["knee"] and cluster["knee"]
            and cluster["knee"]["committed_ops_per_second"]
            > single["knee"]["committed_ops_per_second"]),
    }
    payload = {
        "schema": 3,
        "suite": "service",
        "python": sys.version,
        "protocol_version": PROTOCOL_VERSION,
        "shards": service_bench.BENCH_SHARDS,
        "soak": soak,
        "wall_seconds": round(time.perf_counter() - start, 4),
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench: service soak, single process vs "
          f"{args.cluster_workers}-worker cluster "
          f"(shards={service_bench.BENCH_SHARDS}), wall "
          f"{payload['wall_seconds']:.2f}s -> {output}")
    failures = []
    for label, leg in (("single", single), ("cluster", cluster)):
        print(f"bench: soak {label} "
              f"({leg['structure']}, {leg['workload']}):")
        print(service_soak_table(leg))
        failures += [f"soak {label}: {err}" for err in leg["errors"]]
        if leg["knee"] is None:
            failures.append(f"soak {label}: no knee was measured")
    if single["knee"] and cluster["knee"]:
        single_ops = single["knee"]["committed_ops_per_second"]
        cluster_ops = cluster["knee"]["committed_ops_per_second"]
        verdict = ("beats" if soak["cluster_beats_single"]
                   else "DOES NOT BEAT")
        print(f"bench: soak knee: cluster "
              f"({args.cluster_workers} workers) "
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
        payload["structures"][name] = {
            "elapsed": round(sum(r.wall_seconds for r in mine), 4),
            "operations": sum(r.operations for r in mine),
            "policies": policies,
        }
    # The scaling and stability sections run (and mutate the payload)
    # before it is written, so the emitted JSON carries their numbers.
    scaling_failed = (args.shards > 1
                      and _bench_scaling_section(payload, registry, args))
    stability_failed = (args.arm != "between"
                        and _bench_stability_section(payload, registry,
                                                     args))
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench: {len(structures)} structures x {len(POLICIES)} "
          f"policies x {len(BENCH_WORKLOADS)} workloads, "
          f"workers={args.workers}, wall {wall:.2f}s -> {output}")
    print(policy_comparison_table(runs))
    failed = scaling_failed or stability_failed
    not_serializable = [r for r in runs if not r.serializable]
    if not_serializable:
        print("bench: NOT SERIALIZABLE: "
              + "; ".join(r.summary() for r in not_serializable),
              file=sys.stderr)
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
#: the gate is deterministic.
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
    for name, workload in _stability_gate_workloads():
        plain = harness.run_one(name, workload, policy="commutativity",
                                workers=1, shards=args.shards)
        stable = harness.run_one(name, workload, policy="commutativity",
                                 workers=1, shards=args.shards,
                                 stable=True)
        runs += [plain, stable]
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
    payload["stability"] = section
    print(drift_admission_table(runs))
    for name, entry in section["structures"].items():
        print(f"bench: stability {name}: fallbacks "
              f"{entry['plain_fallbacks']} -> "
              f"{entry['stable_fallbacks']}"
              f", {entry['stable_hits']} stable hits")
    if regressions:
        print("bench: drift-stable admission gate failed:\n  "
              + "\n  ".join(regressions), file=sys.stderr)
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
        help="timing-gated benchmarks (verification, runtime, service)")
    bench.add_argument("--suite", default="verify",
                       choices=("verify", "runtime", "service"),
                       help="verify: cold verification sweep; runtime: "
                            "workload-throughput sweep; service: the "
                            "saturation-knee soak")
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
    bench.add_argument("--arm", default="between",
                       choices=ARM_TIERS[:2],
                       help="--suite runtime: weakened adds the "
                            "drift-stable admission section and its "
                            "gate (the weakened tier must strictly cut "
                            "each gate structure's conservative "
                            "fallbacks)")
    bench.add_argument("--cluster-workers", type=int, default=2,
                       help="--suite service: worker processes in the "
                            "soaked cluster (default 2)")
    bench.add_argument("--soak-seconds", type=float, default=2.0,
                       help="--suite service: seconds each ramp point "
                            "keeps its clients running (default 2.0)")
    bench.add_argument("--soak-budget", type=float, default=300.0,
                       help="--suite service: wall-clock cap per soak "
                            "ramp in seconds; the ramp is truncated "
                            "past it (default 300)")
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
