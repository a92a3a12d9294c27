"""The service tests' live servers, in a module of its own: test
modules import them by this unique name, never from ``conftest``, which
names a different module in every test directory.

The server's asyncio loop runs on a daemon thread; tests talk to it
over real sockets (the blocking :class:`ServiceClient`, the executor's
``ServiceBackend``, or a raw HTTP scrape) exactly like an external
worker process would — minus the process-spawn latency.
"""

import asyncio
import threading

from repro.service.server import AdmissionServer


class LiveServer:
    """An :class:`AdmissionServer` running on its own loop thread."""

    def __init__(self, registry=None) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="test-admission-server",
                                       daemon=True)
        self.thread.start()
        self.server = AdmissionServer("127.0.0.1", 0, registry=registry)
        self._call(self.server.start())
        self._serving = asyncio.run_coroutine_threadsafe(
            self.server.serve_forever(), self.loop)

    def _call(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout)

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        self._serving.cancel()
        self._call(self.server.shutdown(grace=1.0))
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.loop.close()


class LiveCluster:
    """``workers`` in-thread admission servers wired into one
    shard-partitioned cluster: every server carries the same partition
    map (worker id + full port list), exactly what ``start_cluster``
    installs across real processes — minus the spawn latency."""

    def __init__(self, workers: int, registry=None) -> None:
        self.servers = [LiveServer(registry) for _ in range(workers)]
        ports = [server.port for server in self.servers]
        for worker_id, server in enumerate(self.servers):
            server.server.set_cluster(worker_id, ports)

    @property
    def host(self) -> str:
        return self.servers[0].host

    @property
    def port(self) -> int:
        return self.servers[0].port

    @property
    def ports(self) -> list[int]:
        return [server.port for server in self.servers]

    def stop(self) -> None:
        for server in self.servers:
            server.stop()
