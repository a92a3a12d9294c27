"""One ``python -m repro serve`` child process for the served workload."""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile

HOST = "127.0.0.1"
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


class ServerProcess:
    """``python -m repro serve --port 0`` in a fresh temporary working
    directory, so its engine cache — and with it the first ``open``'s
    stable-condition compile — starts empty on every run."""

    def __init__(self, root, tmp) -> None:
        self.cwd = tempfile.mkdtemp(prefix="serve-", dir=tmp)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0"],
            cwd=self.cwd, env=env, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._announced_port()
        except BaseException:
            self.stop()
            raise

    def _announced_port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        match = re.search(r"listening on [^:\s]*:(\d+)", line)
        if match is None:
            raise RuntimeError(
                f"repro serve did not announce its port (got {line!r})")
        return int(match.group(1))

    def metrics(self) -> dict:
        """The server's ``/metrics.json`` snapshot."""
        connection = http.client.HTTPConnection(HOST, self.port, timeout=10)
        try:
            connection.request("GET", "/metrics.json")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (the server drains gracefully), then reap; SIGKILL
        only if it lingers."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            self.process.stdout.close()
        finally:
            shutil.rmtree(self.cwd, ignore_errors=True)
