"""Starting spawned servers: a child that dies before it reports its
port is a ``RuntimeError`` naming its exit code, and a cluster's
workers share one start deadline."""

import multiprocessing as mp
import time

import pytest

from repro.service import cluster
from repro.service.bench import start_server, stop_server
from repro.service.cluster import start_cluster, stop_cluster

#: A documentation address (RFC 5737): numeric, so resolving it asks no
#: name server, and no local interface holds it, so binding fails.
UNBINDABLE = "192.0.2.1"


def _late_worker(conn, host):
    """A cluster worker that reports its port ``id`` seconds late and
    then never serves."""
    worker_id = int(mp.current_process().name.rsplit("-", 1)[1])
    time.sleep(worker_id)
    conn.send(0)
    conn.recv()
    time.sleep(60.0)


def test_a_server_that_cannot_bind_is_a_runtime_error():
    with pytest.raises(RuntimeError, match="admission server exited "
                                           "with code 1 before reporting"):
        # Should the host bind after all, stop the server, which is not
        # a daemon and would keep the test run from exiting.
        process, _ = start_server(host=UNBINDABLE)
        stop_server(process)


def test_a_cluster_whose_workers_cannot_bind_fails_within_one_timeout():
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="cluster worker 0 exited with "
                                           "code 1 before reporting"):
        processes, _ = start_cluster(3, host=UNBINDABLE)
        stop_cluster(processes)
    assert time.monotonic() - started < cluster.CLUSTER_START_TIMEOUT


def test_cluster_workers_share_one_start_deadline(monkeypatch):
    """Worker 2 reports after the 2 s deadline.  One deadline per
    worker would wait for worker 1 and then worker 2, each within 2 s
    of the one before, then time out on worker 0's readiness: over 4 s
    instead of 2."""
    monkeypatch.setattr(cluster, "worker_entry", _late_worker)
    monkeypatch.setattr(cluster, "CLUSTER_START_TIMEOUT", 2.0)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="did not report in time"):
        processes, _ = start_cluster(3)
        stop_cluster(processes)
    assert time.monotonic() - started < 3.5
