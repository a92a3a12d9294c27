#!/usr/bin/env python
"""Sanity-check a bench JSON artifact before CI uploads it.

The bench legs gate on sections of the payload (the ``abduction_gate``
keys of ``BENCH_runtime.json``, the identity/latency sections of
``BENCH_service.json``), and a refactor of the bench driver could
silently drop or rename one — the upload would still succeed and the
regression gate would be vacuous.  This checker fails the leg
instead::

    python benchmarks/check_schema.py BENCH_runtime.json --require-abduction-gate
    python benchmarks/check_schema.py BENCH_service.json

The payload's ``suite`` field dispatches the validation
(``runtime``/``service``).  ``--require-abduction-gate`` asserts the
runtime suite's abduction section is present with every gate key;
without the flag the section is validated only when present (legs that
run without ``--abduce``).
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys

TOP_LEVEL_KEYS = {
    "schema": int,
    "suite": str,
    "workers": int,
    "shards": int,
    "structures": dict,
    "workloads": dict,
    "wall_seconds": numbers.Real,
}

#: Aggregate keys of the ``abduction_gate`` section — the armed-delta,
#: fallback-delta, and digest-identity facts the ``--abduce`` CI leg
#: gates on.
ABDUCTION_GATE_KEYS = {
    "policy": str,
    "shards": int,
    "compiled": dict,
    "structures": dict,
    "baseline_semantic_hits": int,
    "abduced_semantic_hits": int,
    "baseline_hit_rate": numbers.Real,
    "abduced_hit_rate": numbers.Real,
    "armed_hits_delta": numbers.Real,
    "fallback_delta": int,
    "digests_identical": bool,
    "warm_cache_served": bool,
}

#: Per-structure keys of ``abduction_gate.structures`` entries.
ABDUCTION_ENTRY_KEYS = {
    "workload": str,
    "baseline_hits": int,
    "baseline_fallbacks": int,
    "abduced_stable_hits": int,
    "abduced_proved_hits": int,
    "synthesized_hits": int,
    "abduced_fallbacks": int,
    "fallback_admits": int,
    "flat_sharded_identical": bool,
    "local_served_identical": bool,
}


def _check_keys(mapping, spec, where, problems):
    for key, kind in spec.items():
        if key not in mapping:
            problems.append(f"{where}: missing key {key!r}")
        elif not isinstance(mapping[key], kind) \
                or isinstance(mapping[key], bool) and kind is not bool:
            problems.append(
                f"{where}: {key!r} is {type(mapping[key]).__name__}, "
                f"expected {getattr(kind, '__name__', kind)}")


#: Top-level keys of a ``BENCH_service.json`` payload.
SERVICE_TOP_LEVEL_KEYS = {
    "schema": int,
    "suite": str,
    "protocol_version": int,
    "shards": int,
    "service_workers": int,
    "cluster_axis": list,
    "identity": dict,
    "throughput": dict,
    "metrics": dict,
    "wall_seconds": numbers.Real,
}

#: Keys of one soak deployment leg (``soak.single`` / ``soak.cluster``).
SOAK_LEG_KEYS = {
    "structure": str,
    "workload": str,
    "point_seconds": numbers.Real,
    "ramp": list,
    "points": list,
    "truncated": bool,
    "errors": list,
}

#: Keys of one measured soak ramp point.
SOAK_POINT_KEYS = {
    "clients": int,
    "runs": int,
    "domain_reuses": int,
    "committed_operations": int,
    "wall_seconds": numbers.Real,
    "committed_ops_per_second": numbers.Real,
    "latency_ms": dict,
    "errors": list,
}

#: Keys of a soak knee.
SOAK_KNEE_KEYS = {
    "clients": int,
    "committed_ops_per_second": numbers.Real,
    "latency_p95_ms": numbers.Real,
}


def _check_soak(soak, problems: list[str]) -> None:
    """Validation of the ``--soak`` section: both deployment legs must
    have measured points and a knee, and the cluster's knee must have
    beaten the single process's."""
    if not isinstance(soak, dict):
        problems.append(f"soak: {type(soak).__name__}, expected object")
        return
    _check_keys(soak, {"cluster_workers": int,
                       "point_seconds": numbers.Real,
                       "single": dict, "cluster": dict,
                       "cluster_beats_single": bool}, "soak", problems)
    for label in ("single", "cluster"):
        leg = soak.get(label)
        if not isinstance(leg, dict):
            continue
        where = f"soak.{label}"
        _check_keys(leg, SOAK_LEG_KEYS, where, problems)
        points = leg.get("points")
        if isinstance(points, list):
            if not points:
                problems.append(f"{where}: no ramp points were "
                                f"measured")
            for i, point in enumerate(points):
                if not isinstance(point, dict):
                    problems.append(f"{where}.points[{i}]: not an "
                                    f"object")
                    continue
                _check_keys(point, SOAK_POINT_KEYS,
                            f"{where}.points[{i}]", problems)
        knee = leg.get("knee")
        if not isinstance(knee, dict):
            problems.append(f"{where}: knee is {knee!r} — the ramp "
                            f"never measured a best point")
        else:
            _check_keys(knee, SOAK_KNEE_KEYS, f"{where}.knee",
                        problems)
        if leg.get("errors"):
            problems.append(f"{where}: soak client errors: "
                            + "; ".join(map(str, leg["errors"])))
    if soak.get("cluster_beats_single") is False:
        problems.append("soak: the cluster knee did not beat the "
                        "single-process knee")

#: Per-worker keys of the service throughput section.
SERVICE_WORKER_KEYS = {
    "worker": int,
    "structure": str,
    "workload": str,
    "commits": int,
    "aborts": int,
    "committed_operations": int,
    "wall_seconds": numbers.Real,
    "admission_rpcs": int,
    "latency_ms": dict,
    "serializable": bool,
}


def check_service_payload(payload, require_soak: bool = False
                          ) -> list[str]:
    """Validation of a ``BENCH_service.json`` payload: the identity
    leg must exist and hold (across the single-process *and* cluster
    digests), the throughput leg must cover >= 2 client worker
    processes with real latency percentiles, the metrics scrape must
    have exposed every counter, and — when present or required — the
    soak section must report a knee per deployment with the cluster
    beating the single process."""
    problems: list[str] = []
    _check_keys(payload, SERVICE_TOP_LEVEL_KEYS, "payload", problems)
    identity = payload.get("identity")
    if not identity:
        problems.append("payload: identity section is empty — the "
                        "digest gate compared nothing")
    elif isinstance(identity, dict):
        for name, entry in sorted(identity.items()):
            where = f"identity[{name!r}]"
            if not isinstance(entry, dict):
                problems.append(f"{where}: not an object")
                continue
            _check_keys(entry, {"workload": str, "local_digest": str,
                                "service_digest": str,
                                "cluster_digests": dict,
                                "identical": bool,
                                "admission_rpcs": int},
                        where, problems)
            cluster_digests = entry.get("cluster_digests")
            if isinstance(cluster_digests, dict) and not cluster_digests:
                problems.append(f"{where}: cluster_digests is empty — "
                                f"the cluster legs compared nothing")
            if entry.get("identical") is False:
                problems.append(f"{where}: served or cluster decisions "
                                f"diverged from local ones")
    throughput = payload.get("throughput")
    if isinstance(throughput, dict):
        _check_keys(throughput, {"workers": int,
                                 "committed_operations": int,
                                 "committed_ops_per_second":
                                     numbers.Real,
                                 "wall_seconds": numbers.Real,
                                 "admission_rpcs": int,
                                 "latency_ms": dict,
                                 "per_worker": list},
                    "throughput", problems)
        if isinstance(throughput.get("workers"), int) \
                and throughput["workers"] < 2:
            problems.append(f"throughput: only "
                            f"{throughput['workers']} client workers "
                            f"— the cross-process claim needs >= 2")
        per_worker = throughput.get("per_worker")
        if isinstance(per_worker, list):
            if len(per_worker) < 2:
                problems.append(f"throughput: only {len(per_worker)} "
                                f"per-worker results — expected >= 2")
            for i, entry in enumerate(per_worker):
                where = f"throughput.per_worker[{i}]"
                if not isinstance(entry, dict):
                    problems.append(f"{where}: not an object")
                    continue
                _check_keys(entry, SERVICE_WORKER_KEYS, where, problems)
        latency = throughput.get("latency_ms")
        if isinstance(latency, dict):
            for q in ("p50", "p95"):
                value = latency.get(q)
                if not isinstance(value, numbers.Real) \
                        or isinstance(value, bool) or value <= 0:
                    problems.append(f"throughput.latency_ms: {q} is "
                                    f"{value!r}, expected > 0")
        if throughput.get("errors"):
            problems.append("throughput: client worker errors: "
                            + "; ".join(map(str, throughput["errors"])))
    metrics = payload.get("metrics")
    if isinstance(metrics, dict) and metrics.get("ok") is not True:
        problems.append(f"metrics: scrape not ok ({metrics})")
    soak = payload.get("soak")
    if soak is None:
        if require_soak:
            problems.append("payload: soak section is missing (leg "
                            "ran without --soak?)")
    else:
        _check_soak(soak, problems)
    return problems


def _check_abduction_gate(gate, problems: list[str]) -> None:
    """Validation of the ``abduction_gate`` section: the aggregate
    armed-delta / fallback-delta keys, the per-structure hit and digest
    facts, and the identities themselves (a present-but-failed gate
    must not pass the schema check)."""
    if not isinstance(gate, dict):
        problems.append(f"abduction_gate is {type(gate).__name__}, "
                        f"expected object")
        return
    _check_keys(gate, ABDUCTION_GATE_KEYS, "abduction_gate", problems)
    structures = gate.get("structures")
    if not structures:
        problems.append("abduction_gate: structures is empty — the "
                        "gate compared nothing")
        return
    for name, entry in sorted(structures.items()):
        where = f"abduction_gate.structures[{name!r}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        _check_keys(entry, ABDUCTION_ENTRY_KEYS, where, problems)
    if gate.get("digests_identical") is False:
        problems.append("abduction_gate: sharded or served abduced "
                        "decisions diverged from local flat ones")
    if gate.get("warm_cache_served") is False:
        problems.append("abduction_gate: the warm rerun recomputed "
                        "ABDUCTION tasks instead of serving the cache")


def check_payload(payload, require_soak: bool = False,
                  require_abduction_gate: bool = False) -> list[str]:
    """Every problem found, as human-readable strings (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected object"]
    if payload.get("suite") == "service":
        return check_service_payload(payload, require_soak=require_soak)
    _check_keys(payload, TOP_LEVEL_KEYS, "payload", problems)
    if payload.get("suite") not in (None, "runtime"):
        problems.append(f"payload: suite is {payload['suite']!r}, "
                        f"expected 'runtime' or 'service'")
    if not payload.get("structures"):
        problems.append("payload: structures is empty — the sweep ran "
                        "nothing")
    abduction = payload.get("abduction_gate")
    if abduction is None:
        if require_abduction_gate:
            problems.append("payload: abduction_gate section is "
                            "missing (leg ran without --abduce?)")
    else:
        _check_abduction_gate(abduction, problems)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="path to BENCH_runtime.json")
    parser.add_argument("--require-soak", action="store_true",
                        help="fail when the service suite's soak "
                             "section is absent (legs that ran --soak)")
    parser.add_argument("--require-abduction-gate", action="store_true",
                        help="fail when the runtime suite's "
                             "abduction_gate section is absent (legs "
                             "that ran --abduce)")
    args = parser.parse_args(argv)
    try:
        with open(args.report, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"check_schema: unreadable {args.report}: {exc}",
              file=sys.stderr)
        return 2
    problems = check_payload(
        payload, require_soak=args.require_soak,
        require_abduction_gate=args.require_abduction_gate)
    if problems:
        print(f"check_schema: {args.report} failed validation:",
              file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"check_schema: {args.report} has the expected gate keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
