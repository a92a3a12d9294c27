"""Client/server benchmark orchestration for ``bench --suite service``.

One admission-server subprocess (plus shard-partitioned clusters for
the cluster legs), ≥2 client worker *processes* hammering it
concurrently, and the parent asserting the things the service must
deliver:

1. **Decision identity, four ways** — for every runnable builtin
   structure, the same (workload, policy, seed) is executed with local
   admission, against a single-process server, and against 2- and
   4-worker shard-partitioned clusters; all four ``decision_digest()``
   values must be byte-identical.
2. **Cross-process throughput with latency percentiles** — the client
   workers run concurrently against one server, each reporting its
   committed operations and per-RPC admission latencies; the parent
   pools them into p50/p95 and committed-ops/s over the shared wall
   clock, plus a ``/metrics`` scrape proving the per-shard counters
   are live.
3. **The saturation knee** (``--soak``) — ramp the client process
   count on a preloaded write-heavy workload until committed-ops/s
   stops improving; the knee (client count, ops/s, p95) of a
   multi-worker cluster must strictly beat the single process's.

Every client subprocess is reaped in a ``finally`` — a recv failure or
a gate exception must not leak children.  Everything here is top-level
(spawn-context picklable); the CLI wiring lives in ``repro.__main__``.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import time
from typing import Any, Callable, Sequence

from ..runtime.gatekeeper import COUNTERS

#: Structures the throughput leg drives (one set family, one list
#: family — the two runtime-condition shapes).  The identity leg
#: covers *every* runnable builtin instead.
BENCH_STRUCTURES = ("HashSet", "ArrayList")

#: Shard count of every served domain in this bench.
BENCH_SHARDS = 4

#: Cluster sizes the identity leg proves digest-identical to local
#: execution (next to the single-process leg).
CLUSTER_AXIS = (2, 4)

#: Seconds to wait for the server subprocess to report its port.
SERVER_START_TIMEOUT = 30.0

#: The soak ramp: client process counts tried in order until the knee.
SOAK_RAMP = (1, 2, 4, 8)

#: A ramp point must improve committed-ops/s by at least this fraction
#: over the best point so far, or the ramp has hit its knee.
SOAK_KNEE_GAIN = 0.10

#: Seconds each soak point keeps its clients running (per-point
#: duration, not the whole ramp).
SOAK_POINT_SECONDS = 2.0

#: The structure the soak leg drives (single-shard write routes, so a
#: partitioned cluster actually spreads the admission work).
SOAK_STRUCTURE = "HashSet"


def _bench_workload(seed_offset: int = 0):
    """The pinned service-bench workload: mixed ops over a shared key
    space, serial per client, seeded so every leg is deterministic."""
    from ..workloads import WorkloadSpec
    return WorkloadSpec(name="service-mixed", profile="mixed",
                        distribution="uniform", transactions=8,
                        ops_per_transaction=6, key_space=16,
                        value_space=3, preload=8, seed=71 + seed_offset)


def _soak_workload(seed_offset: int = 0):
    """The soak workload: write-heavy hot-key traffic over a preloaded
    structure — admission checks scan a deep outstanding log, which is
    the server-side work the cluster exists to spread across cores."""
    from ..workloads import WorkloadSpec
    return WorkloadSpec(name="service-soak", profile="write-heavy",
                        distribution="hot-key", transactions=12,
                        ops_per_transaction=6, key_space=24,
                        value_space=3, preload=20,
                        seed=131 + seed_offset)


def bench_structures(registry=None) -> tuple[str, ...]:
    """Every builtin structure the identity leg must cover."""
    from ..workloads import ThroughputHarness
    return tuple(ThroughputHarness(registry=registry)
                 .runnable_structures())


def server_entry(conn, host: str) -> None:
    """Subprocess target: run an admission server on an ephemeral port
    and pipe the bound port back; drains on SIGTERM."""
    from .server import run_server
    run_server(host, 0, on_ready=conn.send)


def client_entry(worker_id: int, host: str, port: int,
                 structure: str, conn) -> None:
    """Subprocess target: one client worker process running its seeded
    workload serially against the shared server; pipes back a plain
    result dict."""
    from ..workloads import ThroughputHarness
    from .client import ServiceBackend
    workload = _bench_workload(seed_offset=worker_id)
    harness = ThroughputHarness(workers=1)
    backend = ServiceBackend(host, port, label=f"bench-w{worker_id}")
    try:
        run = harness.run_one(structure, workload,
                              policy="commutativity", workers=1,
                              shards=BENCH_SHARDS, backend=backend)
        report = run.report
        conn.send({
            "worker": worker_id, "structure": structure,
            "workload": workload.label,
            "commits": report.commits, "aborts": report.aborts,
            "committed_operations": report.committed_operations,
            "wall_seconds": report.wall_seconds,
            "admission_rpcs": report.admission_rpcs,
            "latencies": list(report.admission_latencies),
            "serializable": report.serializable,
            "digest": report.decision_digest(),
        })
    except Exception as exc:
        conn.send({"worker": worker_id, "structure": structure,
                   "error": f"{type(exc).__name__}: {exc}"})
    finally:
        backend.close()
        conn.close()


def soak_client_entry(worker_id: int, host: str, port: int,
                      structure: str, duration: float, conn) -> None:
    """Subprocess target: one soak client looping its seeded workload
    through a *pooled* backend (domains reset between runs, not
    re-opened) until ``duration`` elapses; pipes back the totals."""
    from ..workloads import ThroughputHarness
    from .client import ServiceBackend
    workload = _soak_workload(seed_offset=worker_id)
    harness = ThroughputHarness(workers=1)
    backend = ServiceBackend(host, port, label=f"soak-w{worker_id}")
    try:
        deadline = time.perf_counter() + duration
        committed = runs = 0
        latencies: list[float] = []
        while True:
            run = harness.run_one(structure, workload,
                                  policy="commutativity", workers=1,
                                  shards=BENCH_SHARDS, backend=backend)
            committed += run.report.committed_operations
            latencies.extend(run.report.admission_latencies)
            runs += 1
            if time.perf_counter() >= deadline:
                break
        conn.send({
            "worker": worker_id, "structure": structure,
            "workload": workload.label, "runs": runs,
            "committed_operations": committed,
            "latencies": latencies,
            "domain_reuses": backend.domain_reuses,
        })
    except Exception as exc:
        conn.send({"worker": worker_id, "structure": structure,
                   "error": f"{type(exc).__name__}: {exc}"})
    finally:
        backend.close()
        conn.close()


def start_server(host: str = "127.0.0.1"):
    """Spawn the server subprocess; returns ``(process, port)``."""
    ctx = mp.get_context("spawn")
    parent, child = ctx.Pipe()
    process = ctx.Process(target=server_entry, args=(child, host),
                          name="repro-admission-server")
    process.start()
    child.close()
    if not parent.poll(SERVER_START_TIMEOUT):
        process.terminate()
        process.join(5.0)
        raise RuntimeError("admission server did not start in time")
    port = parent.recv()
    parent.close()
    return process, port


def stop_server(process) -> None:
    """SIGTERM the server (graceful drain), escalate if it lingers."""
    if process.is_alive():
        process.terminate()  # SIGTERM: run_server drains on it
        process.join(10.0)
    if process.is_alive():
        process.kill()
        process.join(5.0)


def _run_clients(target: Callable, count: int,
                 args_of: Callable[[int], tuple], name_prefix: str,
                 timeout: float) -> list[dict[str, Any]]:
    """Spawn ``count`` client subprocesses and collect one result dict
    from each pipe.  Reaping is unconditional: whatever fails — a
    spawn, a recv, a timeout — every child is terminated and joined
    before this returns or raises."""
    ctx = mp.get_context("spawn")
    jobs: list[tuple[Any, Any]] = []
    results: list[dict[str, Any]] = []
    try:
        for worker_id in range(count):
            parent, child = ctx.Pipe()
            process = ctx.Process(
                target=target, args=args_of(worker_id) + (child,),
                name=f"{name_prefix}-{worker_id}")
            process.start()
            child.close()
            jobs.append((process, parent))
        for process, parent in jobs:
            results.append(parent.recv() if parent.poll(timeout)
                           else {"error": "client worker timed out"})
    finally:
        for process, parent in jobs:
            try:
                parent.close()
            except OSError:
                pass
            if process.is_alive():
                process.terminate()
        for process, parent in jobs:
            process.join(10.0)
            if process.is_alive():
                process.kill()
                process.join(5.0)
    return results


def scrape_metrics(host: str, port: int,
                   path: str = "/metrics") -> tuple[int, str]:
    """One plain-HTTP GET against the server's frame port; returns
    (status code, body)."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                     f"Connection: close\r\n\r\n".encode("latin-1"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks).decode("utf-8", "replace")
    head, _, body = raw.partition("\r\n\r\n")
    status = int(head.split(" ", 2)[1]) if " " in head else 0
    return status, body


def local_digest_leg(registry,
                     structures: Sequence[str]) -> dict[str, str]:
    """The reference digests: the pinned workload executed with local
    (in-process) admission, per structure."""
    from ..workloads import ThroughputHarness
    harness = ThroughputHarness(registry=registry, workers=1)
    workload = _bench_workload()
    return {structure: harness.run_one(
                structure, workload, policy="commutativity", workers=1,
                shards=BENCH_SHARDS).report.decision_digest()
            for structure in structures}


def digest_leg(registry, host: str, port: int,
               structures: Sequence[str],
               label: str = "identity") -> dict[str, dict[str, Any]]:
    """The pinned workload executed against a served deployment (one
    pooled backend — a cluster port fans out via its partition map),
    per structure: digest plus RPC count."""
    from ..workloads import ThroughputHarness
    from .client import ServiceBackend
    harness = ThroughputHarness(registry=registry, workers=1)
    backend = ServiceBackend(host, port, label=label,
                             registry=registry)
    workload = _bench_workload()
    section: dict[str, dict[str, Any]] = {}
    try:
        for structure in structures:
            run = harness.run_one(structure, workload,
                                  policy="commutativity", workers=1,
                                  shards=BENCH_SHARDS, backend=backend)
            section[structure] = {
                "digest": run.report.decision_digest(),
                "admission_rpcs": run.report.admission_rpcs,
            }
    finally:
        backend.close()
    return section


def identity_leg(registry, host: str, port: int,
                 structures: Sequence[str] | None = None,
                 cluster_axis: Sequence[int] = CLUSTER_AXIS) \
        -> dict[str, Any]:
    """Four-leg decision identity over every runnable builtin: local,
    single-process served (the ``port`` argument), and one
    shard-partitioned cluster per ``cluster_axis`` size.  All digests
    of a structure must be byte-identical."""
    from .cluster import start_cluster, stop_cluster
    structures = tuple(structures if structures is not None
                       else bench_structures(registry))
    local = local_digest_leg(registry, structures)
    single = digest_leg(registry, host, port, structures)
    clusters: dict[int, dict[str, dict[str, Any]]] = {}
    for workers in cluster_axis:
        processes, ports = start_cluster(workers)
        try:
            clusters[workers] = digest_leg(
                registry, "127.0.0.1", ports[0], structures,
                label=f"identity-c{workers}")
        finally:
            stop_cluster(processes)
    workload = _bench_workload()
    section: dict[str, Any] = {}
    for structure in structures:
        cluster_digests = {
            str(workers): clusters[workers][structure]["digest"]
            for workers in cluster_axis}
        digests = {local[structure], single[structure]["digest"],
                   *cluster_digests.values()}
        section[structure] = {
            "workload": workload.label,
            "local_digest": local[structure],
            "service_digest": single[structure]["digest"],
            "cluster_digests": cluster_digests,
            "identical": len(digests) == 1,
            "admission_rpcs": single[structure]["admission_rpcs"],
        }
    return section


def throughput_leg(host: str, port: int, workers: int,
                   structures=BENCH_STRUCTURES) -> dict[str, Any]:
    """``workers`` client processes against one server, concurrently;
    pooled latency percentiles and cross-process committed-ops/s."""
    from ..reporting.tables import percentile
    started = time.perf_counter()
    results = _run_clients(
        client_entry, workers,
        lambda worker_id: (worker_id, host, port,
                           structures[worker_id % len(structures)]),
        "repro-service-client", timeout=120.0)
    wall = time.perf_counter() - started
    errors = [r["error"] for r in results if "error" in r]
    latencies = [latency for r in results
                 for latency in r.get("latencies", ())]
    committed = sum(r.get("committed_operations", 0) for r in results)
    return {
        "workers": workers,
        "errors": errors,
        "committed_operations": committed,
        "wall_seconds": round(wall, 4),
        "committed_ops_per_second": round(committed / wall, 1)
        if wall > 0 else 0.0,
        "admission_rpcs": len(latencies),
        "latency_ms": {
            "p50": round(percentile(latencies, 50) * 1000, 4)
            if latencies else 0.0,
            "p95": round(percentile(latencies, 95) * 1000, 4)
            if latencies else 0.0,
        },
        "per_worker": [
            {"worker": r["worker"], "structure": r["structure"],
             "workload": r["workload"],
             "commits": r["commits"], "aborts": r["aborts"],
             "committed_operations": r["committed_operations"],
             "wall_seconds": round(r["wall_seconds"], 4),
             "admission_rpcs": r["admission_rpcs"],
             "latency_ms": {
                 "p50": round(percentile(r["latencies"], 50) * 1000, 4)
                 if r["latencies"] else 0.0,
                 "p95": round(percentile(r["latencies"], 95) * 1000, 4)
                 if r["latencies"] else 0.0,
             },
             "serializable": r["serializable"]}
            for r in results if "error" not in r],
    }


def soak_point(host: str, port: int, clients: int, structure: str,
               duration: float) -> dict[str, Any]:
    """One point of the soak ramp: ``clients`` looping soak processes
    for ``duration`` seconds; committed-ops/s over the shared wall
    clock plus pooled latency percentiles."""
    from ..reporting.tables import percentile
    started = time.perf_counter()
    results = _run_clients(
        soak_client_entry, clients,
        lambda worker_id: (worker_id, host, port, structure, duration),
        "repro-soak-client", timeout=duration + 60.0)
    wall = time.perf_counter() - started
    errors = [r["error"] for r in results if "error" in r]
    latencies = [latency for r in results
                 for latency in r.get("latencies", ())]
    committed = sum(r.get("committed_operations", 0) for r in results)
    return {
        "clients": clients,
        "errors": errors,
        "runs": sum(r.get("runs", 0) for r in results),
        "domain_reuses": sum(r.get("domain_reuses", 0)
                             for r in results),
        "committed_operations": committed,
        "wall_seconds": round(wall, 4),
        "committed_ops_per_second": round(committed / wall, 1)
        if wall > 0 else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 50) * 1000, 4)
            if latencies else 0.0,
            "p95": round(percentile(latencies, 95) * 1000, 4)
            if latencies else 0.0,
        },
    }


def soak_leg(host: str, port: int, *, structure: str = SOAK_STRUCTURE,
             ramp: Sequence[int] = SOAK_RAMP,
             point_seconds: float = SOAK_POINT_SECONDS,
             time_budget: float | None = None) -> dict[str, Any]:
    """Ramp client processes until committed-ops/s stops improving
    (the saturation knee) or the wall-clock budget runs out.  The knee
    is the best point measured; a ramp point that fails to gain
    :data:`SOAK_KNEE_GAIN` over it ends the ramp."""
    points: list[dict[str, Any]] = []
    errors: list[str] = []
    started = time.perf_counter()
    truncated = False
    best = 0.0
    for clients in ramp:
        if time_budget is not None and points \
                and time.perf_counter() - started >= time_budget:
            truncated = True
            break
        point = soak_point(host, port, clients, structure,
                           point_seconds)
        points.append(point)
        errors.extend(point["errors"])
        if point["errors"]:
            break
        ops = point["committed_ops_per_second"]
        stalled = points[:-1] and ops < best * (1.0 + SOAK_KNEE_GAIN)
        best = max(best, ops)
        if stalled:
            break  # the ramp stopped improving: past the knee
    # The knee is the best point actually measured — a final stalled
    # point can still edge out the one the stop rule compared against.
    measured = [point for point in points if not point["errors"]]
    knee = None
    if measured:
        top = max(measured,
                  key=lambda point: point["committed_ops_per_second"])
        knee = {
            "clients": top["clients"],
            "committed_ops_per_second":
                top["committed_ops_per_second"],
            "latency_p95_ms": top["latency_ms"]["p95"],
        }
    return {
        "structure": structure,
        "workload": _soak_workload().label,
        "point_seconds": point_seconds,
        "ramp": [point["clients"] for point in points],
        "points": points,
        "knee": knee,
        "truncated": truncated,
        "errors": errors,
    }


#: Counter families the metrics scrape must surface (one name per
#: exported per-shard stat plus the server-level cluster gauges; the
#: gate greps the Prometheus body).
EXPECTED_METRIC_NAMES = (
    *(f"repro_shard_{key}" for key in ("outstanding", *COUNTERS)),
    "repro_txn_outcomes_total", "repro_abort_rate",
    "repro_server_active_connections", "repro_server_worker_id",
    "repro_domain_reuse_total",
)


def metrics_leg(host: str, port: int) -> dict[str, Any]:
    """Scrape ``/metrics`` and check every per-shard counter family is
    exposed in Prometheus text format."""
    status, body = scrape_metrics(host, port)
    missing = [name for name in EXPECTED_METRIC_NAMES
               if name not in body]
    return {"status": status, "lines": body.count("\n"),
            "missing": missing,
            "ok": status == 200 and not missing}
