"""The service soak's mechanics: every client ends in a result or an
error entry within one shared deadline, and a ramp against a spawned
server measures its points and a knee.  Which deployment is faster is
the ``bench --suite service`` gate's question, not this module's."""

import time

from repro.service.bench import (_run_clients, soak_leg, start_server,
                                 stop_server)

SOAK_POINT_KEYS = {"clients", "errors", "runs", "domain_reuses",
                   "committed_operations", "wall_seconds",
                   "committed_ops_per_second", "latency_ms"}


def _never_answers(seconds, conn):
    time.sleep(seconds)


def _exits_without_result(conn):
    conn.close()


def test_clients_share_one_deadline():
    started = time.monotonic()
    results = _run_clients(_never_answers, 3, lambda worker_id: (60.0,),
                           "silent-client", timeout=1.0)
    elapsed = time.monotonic() - started
    assert elapsed < 2.5  # one deadline, not one per client
    assert results == [{"error": f"client worker {worker_id} timed out"}
                       for worker_id in range(3)]


def test_a_client_that_exits_without_a_result_is_an_error_entry():
    results = _run_clients(_exits_without_result, 2,
                           lambda worker_id: (), "mute-client",
                           timeout=60.0)
    assert results == [
        {"error": f"client worker {worker_id} exited without a result"}
        for worker_id in range(2)]


def test_soak_leg_measures_two_points_and_a_knee():
    process, port = start_server()
    try:
        leg = soak_leg("127.0.0.1", port, ramp=(1, 2), point_seconds=0.2)
    finally:
        stop_server(process)
    assert leg["errors"] == []
    assert leg["ramp"] == [1, 2]
    for point in leg["points"]:
        assert set(point) == SOAK_POINT_KEYS
        assert point["errors"] == []
        assert point["runs"] > 0 and point["committed_operations"] > 0
    assert set(leg["knee"]) == {"clients", "committed_ops_per_second",
                                "latency_p95_ms"}
    assert leg["knee"]["clients"] in leg["ramp"]
