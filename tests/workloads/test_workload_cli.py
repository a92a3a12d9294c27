"""The ``run`` subcommand and the ``bench --suite runtime`` regression
gate."""

import json

import pytest

from repro.__main__ import main

BUILTINS = {"Accumulator", "ListSet", "HashSet", "AssociationList",
            "HashTable", "ArrayList"}


# -- run -----------------------------------------------------------------------

def test_run_single_policy(capsys):
    code = main(["run", "--name", "HashSet", "--policy", "commutativity",
                 "--txns", "4", "--ops", "4", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "HashSet" in out and "commutativity" in out
    assert "ops/s" in out


def test_run_all_policies_prints_comparison(capsys):
    code = main(["run", "--name", "HashTable", "--txns", "4", "--ops",
                 "4", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    for policy in ("commutativity", "read-write", "mutex"):
        assert policy in out
    assert "commutativity wins" in out


def test_run_txn_stats(capsys):
    code = main(["run", "--name", "HashSet", "--policy", "read-write",
                 "--txns", "4", "--ops", "4", "--seed", "3",
                 "--txn-stats"])
    assert code == 0
    assert "per-transaction aborts" in capsys.readouterr().out


def test_run_multi_worker(capsys):
    code = main(["run", "--name", "HashSet", "--policy", "commutativity",
                 "--txns", "6", "--ops", "4", "--workers", "3",
                 "--seed", "1"])
    assert code == 0


def test_run_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--name", "NoSuchThing"])


# -- bench --suite runtime ------------------------------------------------------

def _run_bench(tmp_path, *extra):
    output = tmp_path / "BENCH_runtime.json"
    code = main(["bench", "--suite", "runtime", "--output", str(output),
                 *extra])
    return code, output


def test_bench_runtime_emits_report(tmp_path, capsys):
    code, output = _run_bench(tmp_path)
    assert code == 0
    data = json.loads(output.read_text())
    assert data["schema"] == 1
    assert data["suite"] == "runtime"
    assert set(data["structures"]) == BUILTINS
    for entry in data["structures"].values():
        assert set(entry["policies"]) == {"commutativity", "read-write",
                                          "mutex"}
        assert entry["elapsed"] >= 0
        assert entry["operations"] > 0
        for stats in entry["policies"].values():
            assert stats["commits"] > 0
            assert stats["ops_per_second"] >= 0
    out = capsys.readouterr().out
    assert "commutativity wins" in out
    assert "BENCH_runtime.json" in out


def test_bench_offers_three_suites_and_two_armings(capsys):
    """The gates of the other suites and tiers are rows of the tier-1
    gate table (tests/test_gates.py); argparse refuses them."""
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "--suite {verify,runtime,service}" in out
    assert "--arm {between,weakened}" in out


def test_bench_runtime_passes_against_generous_baseline(tmp_path, capsys):
    code, output = _run_bench(tmp_path)
    baseline = json.loads(output.read_text())
    for entry in baseline["structures"].values():
        entry["elapsed"] = entry["elapsed"] * 10 + 1.0
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    code, _ = _run_bench(tmp_path, "--baseline", str(baseline_path))
    assert code == 0
    assert "within 2x of baseline" in capsys.readouterr().out


def test_bench_runtime_fails_on_regression(tmp_path, capsys):
    """Sweep times sit under the micro-timing floor, so force the gate
    with a tiny allowed multiple instead of a zeroed baseline."""
    code, output = _run_bench(tmp_path)
    baseline = json.loads(output.read_text())
    for entry in baseline["structures"].values():
        entry["elapsed"] = 0.0
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    code, _ = _run_bench(tmp_path, "--baseline", str(baseline_path),
                         "--max-regression", "0.000001")
    assert code == 1
    assert "regressions" in capsys.readouterr().err


def test_bench_runtime_fails_when_a_structure_vanishes(tmp_path, capsys):
    code, output = _run_bench(tmp_path)
    baseline = json.loads(output.read_text())
    baseline["structures"]["Heap"] = {"elapsed": 0.01}
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    code, _ = _run_bench(tmp_path, "--baseline", str(baseline_path))
    assert code == 1
    assert "missing from" in capsys.readouterr().err


def test_bench_runtime_rejects_incompatible_baseline(tmp_path, capsys):
    code, output = _run_bench(tmp_path)
    baseline = json.loads(output.read_text())
    baseline["suite"] = "verify"
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    code, _ = _run_bench(tmp_path, "--baseline", str(baseline_path))
    assert code == 2
    assert "incompatible" in capsys.readouterr().err


def test_checked_in_baseline_is_compatible(tmp_path):
    """The repo baseline must describe the workloads this bench runs, or
    CI's gate silently rots."""
    import pathlib
    repo = pathlib.Path(__file__).resolve().parent.parent.parent
    baseline = json.loads(
        (repo / "benchmarks" / "BENCH_runtime_baseline.json").read_text())
    code, output = _run_bench(tmp_path)
    payload = json.loads(output.read_text())
    assert baseline["suite"] == payload["suite"]
    assert baseline["workloads"] == payload["workloads"]
    assert set(baseline["structures"]) == set(payload["structures"])


# -- sharding + adaptive CLI ----------------------------------------------------

def test_run_sharded_with_stats(capsys):
    code = main(["run", "--name", "HashSet", "--policy", "commutativity",
                 "--txns", "4", "--ops", "4", "--seed", "3",
                 "--shards", "4", "--shard-stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "shards" in out
    assert "conflict rate" in out


def test_run_adaptive_hybrid(capsys):
    code = main(["run", "--name", "HashSet", "--policy", "commutativity",
                 "--profile", "write-heavy", "--distribution", "hot-key",
                 "--txns", "4", "--ops", "4", "--seed", "3",
                 "--adaptive", "hybrid"])
    assert code == 0


def test_run_preload(capsys):
    code = main(["run", "--name", "ArrayList", "--policy",
                 "commutativity", "--txns", "4", "--ops", "4",
                 "--preload", "16", "--seed", "3"])
    assert code == 0


def test_bench_runtime_sharded_emits_scaling_section(tmp_path):
    """The JSON shape of the flat-vs-sharded comparison.  The actual
    performance gate (sharded beats flat on >= 1 workload per family)
    is wall-clock dependent, so it is enforced only in the dedicated
    CI ``bench-runtime --shards 4`` leg — this unit test must stay
    green on a loaded runner, whatever exit code the gate produced."""
    code, output = _run_bench(tmp_path, "--shards", "4")
    assert code in (0, 1)  # 1 = the performance gate tripped, not an error
    data = json.loads(output.read_text())
    assert data["shards"] == 4
    section = data["scaling"]
    assert section["shards"] == 4 and section["workers"] >= 4
    assert section["conflict_mode"] == "block"
    assert set(section["structures"]) == BUILTINS
    families = {entry["family"]
                for entry in section["structures"].values()}
    assert families == {"Set", "Map", "ArrayList", "Accumulator"}
    for entry in section["structures"].values():
        assert set(entry["beats_flat_on"]) <= set(entry["workloads"])
        for cell in entry["workloads"].values():
            assert cell["flat_committed_ops_per_second"] > 0
            assert cell["sharded_committed_ops_per_second"] > 0
