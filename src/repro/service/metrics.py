"""Observability surface of the admission server.

The server assembles a plain-data *snapshot* (JSON-ready dict) of its
domains — each domain's aggregate admission counters, its full
per-shard stats, and its transaction outcomes — and this module
renders it two ways: as JSON (``/metrics.json``) and as Prometheus
text exposition format (``/metrics``).  Rendering is pure so it can be
unit-tested without a socket.
"""

from __future__ import annotations

import json
from typing import Any

from ..runtime.gatekeeper import COUNTERS

#: Prometheus metric name prefix for everything this server exposes.
PREFIX = "repro"


def snapshot_json(snapshot: dict[str, Any]) -> str:
    """The snapshot as pretty JSON (the ``/metrics.json`` body)."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _labels(**labels: Any) -> str:
    inner = ",".join(f'{key}="{_escape(str(value))}"'
                     for key, value in labels.items())
    return "{" + inner + "}"


def prometheus_text(snapshot: dict[str, Any]) -> str:
    """The snapshot in Prometheus text exposition format.

    Every :data:`~repro.runtime.gatekeeper.COUNTERS` entry is exported
    twice, with its meaning as the HELP text: per domain
    (``admission_<name>_total``) and per shard (``shard_<name>``, with
    ``domain`` and ``shard`` labels).  Log depth, transaction outcomes,
    and the cross-domain abort-rate percentiles ride along.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, help_text: str,
             samples: list[tuple[str, Any]]) -> None:
        if not samples:
            return
        lines.append(f"# HELP {PREFIX}_{name} {help_text}")
        lines.append(f"# TYPE {PREFIX}_{name} {kind}")
        for labels, value in samples:
            lines.append(f"{PREFIX}_{name}{labels} {value}")

    server = snapshot.get("server", {})
    for key in ("connections_total", "rpcs_total", "frames_total",
                "http_requests_total"):
        if key in server:
            emit(f"server_{key}", "counter", f"Server {key}.",
                 [("", server[key])])
    if "uptime_seconds" in server:
        emit("server_uptime_seconds", "gauge",
             "Seconds since the server started.",
             [("", server["uptime_seconds"])])
    emit("server_domains_open", "gauge", "Admission domains open now.",
         [("", server.get("domains_open", 0))])
    emit("server_active_connections", "gauge",
         "Connections currently open against this server.",
         [("", server.get("active_connections", 0))])
    emit("server_worker_id", "gauge",
         "This process's cluster worker id (0 when single-process); "
         "every sample of a worker's scrape carries its label.",
         [(_labels(worker=server.get("worker_id", 0),
                   cluster_workers=server.get("cluster_workers", 1)), 1)])
    emit("domain_reuse_total", "counter",
         "Domains reset for reuse by a pooled client (the keyed "
         "domain cache) instead of being re-opened.",
         [("", server.get("domain_reuse_total", 0))])

    domains = snapshot.get("domains", [])
    for key, meaning in COUNTERS.items():
        emit(f"admission_{key}_total", "counter", meaning,
             [(_labels(domain=d["domain"], structure=d["structure"],
                       label=d["label"]), d["counters"].get(key, 0))
              for d in domains])
    emit("txn_outcomes_total", "counter",
         "Released transactions by outcome (commit or abort).",
         [(_labels(domain=d["domain"], structure=d["structure"],
                   outcome=outcome), d.get(f"{outcome}s", 0))
          for d in domains for outcome in ("commit", "abort")])

    # The per-shard stats keys (ConflictManager.shard_stats) exported
    # with a ``shard`` label: ``outstanding`` is a gauge (log depth
    # right now); every counter only ever increases.
    shard_keys = {"outstanding": "Operations outstanding in the "
                                 "shard's log now.", **COUNTERS}
    for key, meaning in shard_keys.items():
        kind = "gauge" if key == "outstanding" else "counter"
        emit(f"shard_{key}", kind, meaning,
             [(_labels(domain=d["domain"], shard=stats["shard"]),
               stats.get(key, 0))
              for d in domains for stats in d["shard_stats"]])

    rates = snapshot.get("abort_rate_percentiles", {})
    emit("abort_rate", "gauge",
         "Cross-domain abort-rate percentiles "
         "(aborts / released transactions).",
         [(_labels(quantile=q), rates[p])
          for p, q in (("p50", "0.5"), ("p95", "0.95"))
          if p in rates])
    return "\n".join(lines) + "\n"
