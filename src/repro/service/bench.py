"""The service soak behind ``bench --suite service``.

An admission-server subprocess (or a shard-partitioned cluster) and a
ramp of looping client *processes* against it: the client process
count grows on a preloaded write-heavy workload until committed-ops/s
stops improving.  The knee (client count, ops/s, p95) of a
multi-worker cluster must strictly beat the single process's.

Every client subprocess is reaped in a ``finally``, and every client
ends in a result or an error entry within one shared deadline.
Everything here is top-level (spawn-context picklable); the CLI wiring
lives in ``repro.__main__``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Any, Callable, Sequence

from .cluster import await_report

#: Shard count of every served domain in this bench.
BENCH_SHARDS = 4

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


def server_entry(conn, host: str) -> None:
    """Subprocess target: run an admission server on an ephemeral port
    and pipe the bound port back; drains on SIGTERM."""
    from .server import run_server
    run_server(host, 0, on_ready=conn.send)


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
    """Spawn the server subprocess; returns ``(process, port)``.  A
    server that exits before it reports its port, or takes longer than
    :data:`SERVER_START_TIMEOUT`, raises :class:`RuntimeError`."""
    ctx = mp.get_context("spawn")
    parent, child = ctx.Pipe()
    process = ctx.Process(target=server_entry, args=(child, host),
                          name="repro-admission-server")
    process.start()
    child.close()
    try:
        port = await_report(parent, process,
                            time.monotonic() + SERVER_START_TIMEOUT,
                            "admission server")
    except BaseException:
        process.terminate()
        process.join(5.0)
        raise
    finally:
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
    from each pipe, all within one ``timeout`` from the last spawn.  A
    client that misses the deadline, or exits without sending its
    result, yields an ``error`` entry.  Reaping is unconditional:
    whatever fails — a spawn, a recv, a timeout — every child is
    terminated and joined before this returns or raises."""
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
        deadline = time.monotonic() + timeout
        for worker_id, (process, parent) in enumerate(jobs):
            if not parent.poll(max(0.0, deadline - time.monotonic())):
                results.append({"error": f"client worker {worker_id} "
                                         f"timed out"})
                continue
            try:
                results.append(parent.recv())
            except EOFError:
                results.append({"error": f"client worker {worker_id} "
                                         f"exited without a result"})
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
