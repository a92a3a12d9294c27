"""CLI surface of the stability subsystem: the ``stability``
subcommand, ``run --arm weakened``, and the ``bench --suite runtime`` gate
and seed-matrix sections."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Every invocation compiles through the engine cache in its own
    directory, keeping the repo root clean."""
    monkeypatch.chdir(tmp_path)


def test_stability_command_prints_verdicts(capsys):
    code = main(["stability", "--name", "HashSet", "--max-seq-len", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "weakened" in out and "fragile" in out and "stable" in out
    assert "v1 ~= v2" in out
    assert "36 between conditions" in out


def test_stability_command_is_cache_warm_on_rerun(capsys):
    assert main(["stability", "--name", "HashSet",
                 "--max-seq-len", "2"]) == 0
    capsys.readouterr()
    assert main(["stability", "--name", "HashSet",
                 "--max-seq-len", "2"]) == 0
    assert "groups cached" in capsys.readouterr().out


def test_run_stable_prints_drift_admission_table(capsys):
    code = main(["run", "--name", "HashTable", "--policy",
                 "commutativity", "--profile", "write-heavy",
                 "--distribution", "hot-key", "--txns", "6", "--ops",
                 "5", "--preload", "12", "--seed", "5", "--arm",
                 "weakened"])
    assert code == 0
    out = capsys.readouterr().out
    assert "drift checks" in out and "stable hits" in out


def test_bench_runtime_stable_gate(tmp_path, capsys):
    output = tmp_path / "BENCH_runtime.json"
    code = main(["bench", "--suite", "runtime", "--arm", "weakened",
                 "--output", str(output)])
    assert code == 0
    data = json.loads(output.read_text())
    section = data["stability"]
    assert set(section["structures"]) == {"ArrayList", "HashTable"}
    for entry in section["structures"].values():
        assert entry["stable_hits"] > 0
        assert entry["stable_fallbacks"] < entry["plain_fallbacks"]
    assert section["compiled"]["ArrayList"]["weakened"] > 0
    out = capsys.readouterr().out
    assert "bench: stability ArrayList" in out


def test_bench_runtime_seed_matrix(tmp_path, capsys):
    output = tmp_path / "BENCH_runtime.json"
    code = main(["bench", "--suite", "runtime", "--seeds", "2",
                 "--output", str(output)])
    assert code == 0
    data = json.loads(output.read_text())
    section = data["seed_matrix"]
    assert section["seeds"] == 2
    cell = section["structures"]["HashSet"]["mixed-uniform"]["commutativity"]
    assert len(cell["ops_per_second"]) == 2
    assert cell["ops_per_second_p50"] <= cell["ops_per_second_p95"]
    assert cell["aborts_p50"] <= cell["aborts_p95"]
    out = capsys.readouterr().out
    assert "ops/s p50" in out and "aborts p95" in out
