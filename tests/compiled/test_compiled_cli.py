"""CLI surface of the compiled tier: ``run`` decides through closures
with no flag (and refuses the retired ``--compiled``), the ``bench
--suite nogil`` scaling report, and the schema checker CI runs against
the runtime artifact's ``abduction_gate`` section."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent
                       / "benchmarks"))

import check_schema  # noqa: E402

from repro.__main__ import main  # noqa: E402


def test_compiled_flag_is_gone(capsys):
    """``--compiled`` is gone, and so are the arming flags ``--arm``
    replaced: each exits 2 naming the flag."""
    argvs = [["run", "--name", "HashSet", "--compiled"]]
    for flag in ("--stable", "--prover", "--abduce"):
        argvs += [["run", "--name", "HashSet", flag],
                  ["stability", "--name", "HashSet", flag],
                  ["bench", "--suite", "runtime", flag]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert argv[-1] in capsys.readouterr().err, argv


def test_run_output_matches_the_interpreter(capsys, interpreted):
    """The CLI's report lines agree with an all-interpreted run:
    commits/aborts/ops are the decision-visible fields."""
    argv = ["run", "--name", "ArrayList", "--profile", "write-heavy",
            "--distribution", "hot-key", "--txns", "6", "--ops", "5",
            "--preload", "12", "--seed", "7"]
    assert main(argv) == 0
    compiled = capsys.readouterr().out
    with interpreted():
        assert main(argv) == 0
    reference = capsys.readouterr().out

    def decisions(text):
        """Workload-report rows minus the ops/s column (the only
        timing-dependent field; everything else is decisions)."""
        rows = []
        for line in text.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if cells[0] == "ArrayList" and len(cells) == 11:
                del cells[9]
                rows.append(cells)
        return rows

    assert decisions(compiled) == decisions(reference)
    assert decisions(compiled)
    assert "yes" in compiled  # the serializable column


def test_bench_nogil_suite(tmp_path, capsys):
    output = tmp_path / "BENCH_nogil.json"
    code = main(["bench", "--suite", "nogil", "--output", str(output)])
    captured = capsys.readouterr()
    out = captured.out
    # The CLI names the cells that failed their check on stderr.
    assert code == 0, captured.err
    payload = json.loads(output.read_text())
    assert payload["suite"] == "nogil"
    assert "compiled" not in payload
    assert payload["conflict_mode"] == "block"
    assert payload["workers_axis"] == [1, 2, 4]
    assert payload["shards_axis"] == [1, 8]
    # Pre-3.13 interpreters report the GIL probe as null, never a guess.
    assert payload["gil_enabled"] in (True, False, None)
    for name, grid in payload["structures"].items():
        for label, cells in grid.items():
            assert cells, (name, label)
            assert all(v > 0 for v in cells.values()), (name, label)
    assert "nogil" in out


# -- the schema checker CI runs before upload ---------------------------------

def _valid_payload():
    entry = {
        "workload": "register-hotkey", "baseline_hits": 0,
        "baseline_fallbacks": 12, "abduced_stable_hits": 0,
        "abduced_proved_hits": 0, "synthesized_hits": 9,
        "abduced_fallbacks": 3, "fallback_admits": 0,
        "flat_sharded_identical": True, "local_served_identical": True,
    }
    return {
        "schema": 1, "suite": "runtime", "workers": 1, "shards": 4,
        "structures": {"HashSet": {"elapsed": 0.01}},
        "workloads": {"w": {}}, "wall_seconds": 1.0,
        "abduction_gate": {
            "policy": "commutativity", "shards": 4,
            "compiled": {"RegisterCell": {"synthesized": 2, "proved": 0,
                                          "weakened": 0, "fragile": 1}},
            "structures": {"RegisterCell": entry},
            "baseline_semantic_hits": 0, "abduced_semantic_hits": 9,
            "baseline_hit_rate": 0.0, "abduced_hit_rate": 0.75,
            "armed_hits_delta": 0.75, "fallback_delta": -9,
            "digests_identical": True, "warm_cache_served": True,
        },
    }


def test_check_schema_accepts_a_valid_artifact(tmp_path, capsys):
    path = tmp_path / "BENCH_runtime.json"
    path.write_text(json.dumps(_valid_payload()))
    assert check_schema.main([str(path), "--require-abduction-gate"]) \
        == 0
    assert "expected gate keys" in capsys.readouterr().out


def test_check_schema_rejects_missing_gate(tmp_path, capsys):
    payload = _valid_payload()
    del payload["abduction_gate"]
    path = tmp_path / "BENCH_runtime.json"
    path.write_text(json.dumps(payload))
    assert check_schema.main([str(path)]) == 0  # gate optional by default
    assert check_schema.main([str(path), "--require-abduction-gate"]) == 1
    assert "abduction_gate" in capsys.readouterr().err


def test_check_schema_rejects_dropped_gate_keys():
    payload = _valid_payload()
    del payload["abduction_gate"]["structures"]["RegisterCell"][
        "synthesized_hits"]
    problems = check_schema.check_payload(payload,
                                          require_abduction_gate=True)
    assert any("synthesized_hits" in p for p in problems)


def test_check_schema_rejects_wrong_types():
    payload = _valid_payload()
    payload["abduction_gate"]["structures"]["RegisterCell"][
        "synthesized_hits"] = "many"
    payload["wall_seconds"] = "fast"
    problems = check_schema.check_payload(payload,
                                          require_abduction_gate=True)
    assert len(problems) == 2


def test_check_schema_requires_flat_comparison_when_sharded():
    """The flat-vs-sharded digest comparison is a gate key, and a
    present-but-failed comparison fails the check."""
    payload = _valid_payload()
    entry = payload["abduction_gate"]["structures"]["RegisterCell"]
    del entry["flat_sharded_identical"]
    problems = check_schema.check_payload(payload,
                                          require_abduction_gate=True)
    assert any("flat_sharded_identical" in p for p in problems)
    entry["flat_sharded_identical"] = False
    payload["abduction_gate"]["digests_identical"] = False
    problems = check_schema.check_payload(payload,
                                          require_abduction_gate=True)
    assert any("diverged" in p for p in problems)


def test_check_schema_unreadable_file(tmp_path, capsys):
    assert check_schema.main([str(tmp_path / "missing.json")]) == 2
    assert "unreadable" in capsys.readouterr().err
