"""Shared fixtures: one in-thread admission server, and one 2-worker
cluster, per test module (see :mod:`service_fixture`)."""

import pytest

from service_fixture import LiveCluster, LiveServer


@pytest.fixture(scope="module")
def live_server():
    server = LiveServer()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def live_cluster():
    cluster = LiveCluster(2)
    yield cluster
    cluster.stop()
