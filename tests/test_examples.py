"""The example applications must stay runnable (deliverable smoke tests)."""

import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    # A scratch cwd: examples using Session write ./.repro-cache by
    # default, which must not land in (or be served from) the repo root.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as scratch:
        return subprocess.run(
            [sys.executable, str(EXAMPLES / script), *args],
            capture_output=True, text=True, timeout=300,
            cwd=scratch, env=env)


def test_quickstart_runs():
    result = _run("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "v1 ~= v2 | r1" in result.stdout
    assert "abstract states equal: True" in result.stdout
    assert "concrete layouts equal: False" in result.stdout


def test_custom_datastructure_runs():
    result = _run("custom_datastructure.py")
    assert result.returncode == 0, result.stderr
    assert "naive write;write condition" in result.stdout
    assert "FAILED" in result.stdout          # the unsound guess is refuted
    assert "repaired write;write condition" in result.stdout


@pytest.mark.slow
def test_speculative_index_runs():
    result = _run("speculative_index.py")
    assert result.returncode == 0, result.stderr
    assert "serializable=True" in result.stdout


def test_workload_throughput_runs():
    result = _run("workload_throughput.py")
    assert result.returncode == 0, result.stderr
    assert "commutativity wins" in result.stdout
    assert "workers=4" in result.stdout


def test_verify_catalog_runs():
    result = _run("verify_catalog.py", "--max-seq-len", "2")
    assert result.returncode == 0, result.stderr
    assert "catalog size: 765 conditions (paper: 765)" in result.stdout
    assert "all conditions and inverses verified." in result.stdout


def test_sharded_throughput_runs():
    result = _run("sharded_throughput.py")
    assert result.returncode == 0, result.stderr
    assert "flat vs sharded: identical decisions" in result.stdout
    assert "serializable=False" not in result.stdout


def test_drift_stable_admission_runs():
    # Rolls ArrayList transactions back under the stable tiers.
    result = _run("drift_stable_admission.py")
    assert result.returncode == 0, result.stderr
    assert "flat and sharded stable decisions are identical" \
        in result.stdout
    assert "serializable=False" not in result.stdout


def test_abduced_custom_structure_runs():
    # Rolls RegisterCell transactions back through its registered inverse.
    result = _run("abduced_custom_structure.py")
    assert result.returncode == 0, result.stderr
    assert "flat and sharded synthesized decisions are identical" \
        in result.stdout
    assert "serializable=False" not in result.stdout
