"""``refresh_baselines.py`` replaces a baseline only with the payload of
a passing bench run, and leaves no temporary file behind."""

import json

import pytest

import refresh_baselines

OLD = {"structures": {"HashSet": {"elapsed": 0.5}}}
NEW = {"structures": {"HashSet": {"elapsed": 0.25}}}


@pytest.fixture
def baseline(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_runtime_baseline.json"
    path.write_text(json.dumps(OLD))
    monkeypatch.setattr(refresh_baselines, "BENCH_DIR", tmp_path)
    monkeypatch.setattr(refresh_baselines, "SUITES",
                        {"runtime": (path, ["bench"])})
    return path


def _bench_exiting(monkeypatch, code):
    def bench(argv):
        output = argv[argv.index("--output") + 1]
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(NEW, handle)
        return code
    monkeypatch.setattr(refresh_baselines, "repro_main", bench)


def test_a_failing_run_leaves_the_baseline_as_it_was(baseline,
                                                     monkeypatch):
    _bench_exiting(monkeypatch, 1)
    assert refresh_baselines.refresh("runtime") == 1
    assert json.loads(baseline.read_text()) == OLD
    assert list(baseline.parent.iterdir()) == [baseline]


def test_a_passing_run_replaces_the_baseline(baseline, monkeypatch):
    _bench_exiting(monkeypatch, 0)
    assert refresh_baselines.refresh("runtime") == 0
    assert json.loads(baseline.read_text()) == NEW
    assert list(baseline.parent.iterdir()) == [baseline]
