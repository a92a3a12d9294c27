"""The admission server over real sockets: frame RPCs, batching,
error surfaces, and the HTTP metrics side of the same port."""

import json
import time

import pytest

from repro.eval import Record
from repro.runtime import ExecutionReport
from repro.service import protocol
from repro.service.bench import EXPECTED_METRIC_NAMES, scrape_metrics
from repro.service.client import ServiceClient, ServiceError
from repro.service.metrics import prometheus_text

from service_fixture import LiveServer


def _seq_state(*elems):
    return Record(elems=tuple(elems))


@pytest.fixture()
def client(live_server):
    client = ServiceClient(live_server.host, live_server.port)
    yield client
    client.close()


def _open_arraylist(client, shards=2):
    response = client.call(protocol.open_frame("ArrayList",
                                               shards=shards,
                                               label="test"))
    return response["domain"]


# -- handshake and liveness ---------------------------------------------------

def test_hello_handshake_reports_the_protocol_version(client):
    assert client.server_version == protocol.PROTOCOL_VERSION


def test_version_mismatch_is_refused(client):
    # A v3 client would ship states the server no longer reads.
    for version in (3, protocol.PROTOCOL_VERSION + 1):
        with pytest.raises(ServiceError, match="version mismatch"):
            client.call({"t": "hello", "v": version})
    assert client.call(protocol.ping_frame())["ok"] is True


def test_ping(client):
    assert client.call(protocol.ping_frame())["ok"] is True


# -- the admission RPC surface ------------------------------------------------

def test_served_admission_flow(client):
    """open → state → record → check (admit and conflict) → release →
    stats → close, with the same decisions the in-process gatekeeper
    makes."""
    domain = _open_arraylist(client)
    client.call(protocol.state_frame(domain, _seq_state("a", "b", "c")))
    client.call(protocol.record_frame(domain, 1, "get", (0,), "a"))
    # Reads commute: a second get is admitted.
    verdict = client.call(protocol.check_frame(domain, 2, "get", (0,)))
    assert verdict["admitted"] is True and verdict["holder"] is None
    # A write under the outstanding read conflicts; the holder is the
    # logging transaction (wait-die needs its id).
    verdict = client.call(protocol.check_frame(domain, 2, "set",
                                               (0, "x")))
    assert verdict["admitted"] is False and verdict["holder"] == 1

    client.call(protocol.release_frame(domain, 1, "commit"))
    # The log is drained: the write is now admitted.
    verdict = client.call(protocol.check_frame(domain, 2, "set",
                                               (0, "x")))
    assert verdict["admitted"] is True

    stats = client.call(protocol.stats_frame(domain))["stats"]
    assert stats["structure"] == "ArrayList"
    assert stats["commits"] == 1 and stats["aborts"] == 0
    assert stats["counters"]["conflict_checks"] >= 2
    assert stats["counters"]["conflicts"] == 1
    assert len(stats["shard_stats"]) == 2

    final = client.call(protocol.close_frame(domain))["stats"]
    assert final["closed"] is True
    # Closed domains refuse admission traffic but keep serving stats
    # (scrape continuity after a run).
    with pytest.raises(ServiceError, match="closed domain"):
        client.call(protocol.check_frame(domain, 3, "get", (0,)))
    retained = client.call(protocol.stats_frame(domain))["stats"]
    assert retained["counters"] == final["counters"]


def test_abort_release_counts_as_abort(client):
    domain = _open_arraylist(client)
    client.call(protocol.state_frame(domain, _seq_state("a")))
    client.call(protocol.record_frame(domain, 1, "get", (0,), "a"))
    client.call(protocol.release_frame(domain, 1, "abort"))
    stats = client.call(protocol.stats_frame(domain))["stats"]
    assert stats["aborts"] == 1 and stats["commits"] == 0
    assert stats["abort_rate"] == 1.0


def test_batch_preserves_order_and_nesting_is_refused(client):
    domain = _open_arraylist(client)
    # state-record-check in one round-trip: the check must see the
    # freshly recorded write (order preserved) and conflict.
    results = client.call_batch([
        protocol.state_frame(domain, _seq_state("a")),
        protocol.record_frame(domain, 1, "set", (0, "z"), "a"),
        protocol.check_frame(domain, 2, "set", (0, "x")),
    ])
    assert results[0]["ok"] is True and results[1]["ok"] is True
    assert results[2]["admitted"] is False and results[2]["holder"] == 1

    nested = client.call(protocol.batch_frame(
        [protocol.batch_frame([protocol.ping_frame()])]))
    assert nested["results"][0]["ok"] is False
    assert "nest" in nested["results"][0]["error"]


def test_check_and_record_need_a_kept_state(client):
    """Before a state frame, and again after a reset drops the kept
    state, checks and records are refused; the connection serves on."""
    domain = _open_arraylist(client)
    for frame in (protocol.check_frame(domain, 1, "get", (0,)),
                  protocol.record_frame(domain, 1, "get", (0,), "a")):
        with pytest.raises(ServiceError, match="no state"):
            client.call(frame)
        assert client.call(protocol.ping_frame())["ok"] is True
    client.call(protocol.state_frame(domain, _seq_state("a")))
    assert client.call(protocol.check_frame(domain, 1, "get",
                                            (0,)))["admitted"] is True
    client.call(protocol.reset_frame(domain))
    with pytest.raises(ServiceError, match="no state"):
        client.call(protocol.check_frame(domain, 1, "get", (0,)))
    assert client.call(protocol.ping_frame())["ok"] is True


def test_record_of_an_unknown_operation_is_refused(client):
    domain = _open_arraylist(client)
    client.call(protocol.state_frame(domain, _seq_state("a")))
    with pytest.raises(ServiceError, match="no operation 'frobnicate'"):
        client.call(protocol.record_frame(domain, 1, "frobnicate", (0,),
                                          None))
    # Nothing was logged: a write to the same index is admitted.
    assert client.call(protocol.check_frame(
        domain, 2, "set", (0, "x")))["admitted"] is True


def test_an_abort_undoes_its_mutations_on_the_kept_state(client,
                                                         live_server):
    """The abort of ``set_`` applies ``set`` with the element its base
    operation replaced (the spec supplies it; the frame carries only
    the discarded ``None``) to the state as it is now, not as it was."""
    domain = _open_arraylist(client)
    kept = live_server.server._domains[domain]
    client.call(protocol.state_frame(domain, Record(elems=("a", "b"),
                                                    size=2)))
    client.call(protocol.record_frame(domain, 1, "set_", (0, "z"), None))
    client.call(protocol.record_frame(domain, 2, "add_at", (2, "c"),
                                      None))
    assert kept.state == Record(elems=("z", "b", "c"), size=3)
    client.call(protocol.release_frame(domain, 2, "commit"))
    client.call(protocol.release_frame(domain, 1, "abort"))
    assert kept.state == Record(elems=("a", "b", "c"), size=3)
    assert kept.txns == {}


def test_error_surfaces(client):
    with pytest.raises(ServiceError, match="unknown frame type"):
        client.call({"t": "frobnicate"})
    with pytest.raises(ServiceError, match="unknown or closed domain"):
        client.call(protocol.check_frame(999999, 1, "get", (0,)))
    with pytest.raises(ServiceError, match="unknown domain"):
        client.call(protocol.stats_frame(999999))
    with pytest.raises(ServiceError):
        client.call(protocol.open_frame("NoSuchStructure"))
    # A failed frame must not poison the connection.
    assert client.call(protocol.ping_frame())["ok"] is True


def _snapshot(node):
    status, body = scrape_metrics(node.host, node.port,
                                  path="/metrics.json")
    assert status == 200
    return json.loads(body)


def test_a_domain_belongs_to_the_connection_that_opened_it():
    """Another connection's state, check, record, release, reset and
    close frames on a domain are refused, while its stats stay open.
    When the owner drops its socket mid-transaction, the server closes
    the domain and counts the outstanding transaction as an abort; the
    other connection serves on throughout."""
    server = LiveServer()
    try:
        owner = ServiceClient(server.host, server.port)
        other = ServiceClient(server.host, server.port)
        try:
            domain = _open_arraylist(owner)
            owner.call_batch([
                protocol.state_frame(domain, _seq_state("a")),
                protocol.record_frame(domain, 1, "set", (0, "b"), "a")])
            for frame in (protocol.state_frame(domain, _seq_state("x")),
                          protocol.check_frame(domain, 2, "get", (0,)),
                          protocol.record_frame(domain, 2, "get", (0,),
                                                "b"),
                          protocol.release_frame(domain, 1, "abort"),
                          protocol.reset_frame(domain),
                          protocol.close_frame(domain)):
                with pytest.raises(ServiceError,
                                   match="another connection"):
                    other.call(frame)
            assert other.call(protocol.stats_frame(domain))["stats"] \
                ["counters"]["conflict_checks"] == 0
            # The owner's transaction is untouched and still conflicts.
            verdict = owner.call(protocol.check_frame(domain, 2, "set",
                                                      (0, "x")))
            assert verdict["admitted"] is False and verdict["holder"] == 1
            assert _snapshot(server)["server"]["domains_open"] == 1

            owner.close()  # no close frame: the socket just goes away
            deadline = time.monotonic() + 10.0
            while _snapshot(server)["server"]["domains_open"]:
                assert time.monotonic() < deadline, "domain left open"
                time.sleep(0.01)
            stats = other.call(protocol.stats_frame(domain))["stats"]
            assert stats["closed"] is True
            assert (stats["aborts"], stats["commits"]) == (1, 0)
            assert all(shard["outstanding"] == 0
                       for shard in stats["shard_stats"])
            with pytest.raises(ServiceError, match="closed domain"):
                other.call(protocol.check_frame(domain, 3, "get", (0,)))
            assert other.call(protocol.ping_frame())["ok"] is True
        finally:
            other.close()
            owner.close()
    finally:
        server.stop()


def test_malformed_body_gets_an_error_frame(live_server):
    """A syntactically broken frame is answered (then the connection
    closes) instead of killing the server."""
    import socket
    import struct
    with socket.create_connection((live_server.host, live_server.port),
                                  timeout=10.0) as sock:
        sock.sendall(struct.pack(">I", 3) + b"{{{")
        reader = sock.makefile("rb")
        (length,) = struct.unpack(">I", reader.read(4))
        response = json.loads(reader.read(length))
    assert response["ok"] is False
    # And the server still answers new connections afterwards.
    probe = ServiceClient(live_server.host, live_server.port)
    try:
        assert probe.call(protocol.ping_frame())["ok"] is True
    finally:
        probe.close()


# -- every domain decides through compiled closures ----------------------------

def test_open_frame_has_no_compiled_key():
    assert "compiled" not in protocol.open_frame("HashSet", stable=True)


def test_legacy_compiled_false_still_arms_closures(client):
    """An older client's ``"compiled": false`` is never read: the
    domain decides through closures anyway."""
    frame = dict(protocol.open_frame("HashSet", label="legacy"),
                 compiled=False)
    domain = client.call(frame)["domain"]
    client.call(protocol.state_frame(
        domain, Record(contents=frozenset({"a"}), size=1)))
    client.call(protocol.record_frame(domain, 1, "contains", ("a",), True))
    verdict = client.call(protocol.check_frame(domain, 2, "add", ("b",)))
    assert verdict["admitted"] is True
    stats = client.call(protocol.stats_frame(domain))["stats"]
    assert "compiled" not in stats
    assert stats["counters"]["conflict_checks"] == 1
    assert stats["counters"]["compiled_hits"] > 0


def test_metrics_json_domains_list_no_compiled_flag(client, live_server):
    _open_arraylist(client)
    status, body = scrape_metrics(live_server.host, live_server.port,
                                  path="/metrics.json")
    assert status == 200
    domains = json.loads(body)["domains"]
    assert domains
    for domain in domains:
        assert "compiled" not in domain
        assert "compiled_hits" in domain["counters"]


# -- metrics ------------------------------------------------------------------

def test_http_metrics_exposes_every_shard_counter(client, live_server):
    domain = _open_arraylist(client)
    client.call(protocol.state_frame(domain, _seq_state("a")))
    client.call(protocol.record_frame(domain, 1, "get", (0,), "a"))
    client.call(protocol.check_frame(domain, 2, "get", (0,)))
    client.call(protocol.release_frame(domain, 1, "commit"))

    status, body = scrape_metrics(live_server.host, live_server.port)
    assert status == 200
    for name in EXPECTED_METRIC_NAMES:
        assert name in body, f"missing metric family {name}"
    assert "repro_server_uptime_seconds" in body
    assert 'outcome="commit"' in body and 'outcome="abort"' in body
    assert f'domain="{domain}"' in body


def test_http_metrics_json_is_the_snapshot(client, live_server):
    _open_arraylist(client)
    status, body = scrape_metrics(live_server.host, live_server.port,
                                  path="/metrics.json")
    assert status == 200
    snapshot = json.loads(body)
    assert snapshot["server"]["protocol_version"] \
        == protocol.PROTOCOL_VERSION
    assert snapshot["server"]["connections_total"] >= 1
    assert snapshot["domains"]


def test_percentiles_are_nearest_rank():
    """The p50 of four samples is the second-smallest, for the client's
    RPC latencies and for the server's abort-rate percentiles."""
    report = ExecutionReport("HashSet", "commutativity",
                             admission_latencies=[0.004, 0.001, 0.003,
                                                  0.002])
    assert report.admission_latency_ms(50) == pytest.approx(2.0)
    server = LiveServer()
    try:
        client = ServiceClient(server.host, server.port)
        try:
            for aborts in (4, 1, 3, 2):  # abort rates 0.4, 0.1, 0.3, 0.2
                domain = client.call(
                    protocol.open_frame("HashSet"))["domain"]
                client.call_batch([
                    protocol.release_frame(
                        domain, txn, "abort" if txn < aborts else "commit")
                    for txn in range(10)])
        finally:
            client.close()
        rates = server.server.metrics_snapshot()["abort_rate_percentiles"]
    finally:
        server.stop()
    assert rates["p50"] == pytest.approx(0.2)


def test_http_unknown_path_is_404(live_server):
    status, body = scrape_metrics(live_server.host, live_server.port,
                                  path="/nope")
    assert status == 404
    assert "not found" in body


def test_prometheus_rendering_is_pure():
    """The text renderer works off a plain snapshot dict — no server,
    no socket."""
    snapshot = {
        "server": {"connections_total": 3, "rpcs_total": 9,
                   "frames_total": 11, "http_requests_total": 1,
                   "uptime_seconds": 1.5, "domains_open": 1},
        "domains": [{
            "domain": 0, "structure": "HashSet", "label": "t",
            "commits": 2, "aborts": 1,
            "counters": {"conflict_checks": 5, "conflicts": 1},
            "shard_stats": [{"shard": 0, "conflict_checks": 5,
                             "conflicts": 1, "outstanding": 0}],
        }],
        "abort_rate_percentiles": {"p50": 0.25, "p95": 0.5},
    }
    body = prometheus_text(snapshot)
    assert "# TYPE repro_shard_conflict_checks counter" in body
    assert "# TYPE repro_shard_outstanding gauge" in body
    assert ('repro_admission_conflict_checks_total'
            '{domain="0",structure="HashSet"') in body
    assert 'repro_abort_rate{quantile="0.5"} 0.25' in body
    assert body.endswith("\n")
