"""The ``bench`` subcommand: emits BENCH_verify.json and gates
verification-time regressions against a checked-in baseline."""

import json

from repro.__main__ import main


def _run_bench(tmp_path, *extra):
    output = tmp_path / "BENCH_verify.json"
    code = main(["bench", "--backend", "bounded", "--max-seq-len", "1",
                 "--jobs", "2", "--output", str(output), *extra])
    return code, output


def test_bench_emits_timing_report(tmp_path, capsys):
    code, output = _run_bench(tmp_path)
    assert code == 0
    data = json.loads(output.read_text())
    assert data["schema"] == 1
    assert data["backend"] == "bounded"
    assert data["jobs"] == 2
    assert set(data["structures"]) == {
        "Accumulator", "ListSet", "HashSet", "AssociationList",
        "HashTable", "ArrayList"}
    for entry in data["structures"].values():
        assert entry["all_verified"]
        assert entry["conditions"] > 0
        assert entry["elapsed"] >= 0
        assert entry["tasks"] > 0
    assert sum(e["conditions"] for e in data["structures"].values()) == 765
    out = capsys.readouterr().out
    assert "task shard" in out and "BENCH_verify.json" in out


def test_bench_passes_against_generous_baseline(tmp_path, capsys):
    code, output = _run_bench(tmp_path)
    baseline = json.loads(output.read_text())
    for entry in baseline["structures"].values():
        entry["elapsed"] = entry["elapsed"] * 10 + 1.0
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    code, _ = _run_bench(tmp_path, "--baseline", str(baseline_path))
    assert code == 0
    assert "within 2x of baseline" in capsys.readouterr().out


def test_bench_fails_on_regression(tmp_path, capsys):
    """Every structure verifies under 2x the micro-timing floor at
    ``max_seq_len=1``, so a zeroed baseline alone no longer trips the
    default gate; force it with a tiny allowed multiple as well."""
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


def test_bench_rejects_incompatible_baseline(tmp_path, capsys):
    code, output = _run_bench(tmp_path)
    baseline = json.loads(output.read_text())
    baseline["scope"]["max_seq_len"] = 3  # recorded at a different scope
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    code, _ = _run_bench(tmp_path, "--baseline", str(baseline_path))
    assert code == 2
    assert "incompatible" in capsys.readouterr().err


def test_bench_unreadable_baseline(tmp_path, capsys):
    code, _ = _run_bench(tmp_path, "--baseline",
                         str(tmp_path / "missing.json"))
    assert code == 2
    assert "unreadable baseline" in capsys.readouterr().err
