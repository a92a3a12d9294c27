"""Result-cache correctness: hits restore byte-identical reports,
failures never cache, stale engine versions and corrupt files are
ignored, and mutated registrations re-verify."""

import json

from repro.api import Session
from repro.commutativity.verifier import verify_all, verify_data_structure
from repro.engine import ResultCache
from repro.engine.cache import SCHEMA
from repro.eval import Scope

SCOPE = Scope(objects=("a", "b"), max_seq_len=2)


def test_warm_run_is_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    cold = verify_data_structure("ListSet", SCOPE, cache=cache)
    warm = verify_data_structure("ListSet", SCOPE, cache=cache)
    assert cold.all_verified
    assert repr(cold) == repr(warm)
    assert cold.summary() == warm.summary()
    assert cold.elapsed == warm.elapsed
    assert warm.cache_hits == len(warm.task_timings) == 36
    assert warm.cache_misses == 0
    assert all(r.cached for r in warm.results)


def test_cache_persists_across_processes_shape(tmp_path):
    """The on-disk JSON has the documented shape and survives reload."""
    cache = tmp_path / "cache"
    verify_data_structure("Accumulator", SCOPE, cache=cache)
    path = cache / "verify.json"
    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA
    entry = next(iter(data["entries"].values()))
    assert {"engine_version", "label", "kind", "backend", "elapsed",
            "results"} <= set(entry)
    # A fresh ResultCache object (fresh process in spirit) serves hits.
    warm = verify_data_structure("Accumulator", SCOPE, cache=cache)
    assert warm.cache_hits == len(warm.task_timings)


def test_failures_are_never_cached(tmp_path, register_scope):
    """A refuted obligation re-runs every time (fresh counterexamples)."""
    import register_fixture
    from repro.api import Registry
    from repro.commutativity import CommutativityCondition, Kind

    registry = Registry.with_builtins()
    registry.register_spec("Register", register_fixture.make_register_spec)

    def build(spec):
        return [CommutativityCondition(
            family="Register", m1="write", m2="write", kind=Kind.BEFORE,
            text="true", spec=spec)]  # unsound: writes rarely commute

    registry.register_conditions("Register", build)
    cache = tmp_path / "cache"
    first = verify_data_structure("Register", register_scope,
                                  registry=registry, cache=cache)
    assert not first.all_verified
    second = verify_data_structure("Register", register_scope,
                                   registry=registry, cache=cache)
    assert second.cache_hits == 0
    assert first == second  # same counterexamples, recomputed


def test_stale_engine_version_entries_ignored(tmp_path):
    cache_dir = tmp_path / "cache"
    verify_data_structure("Accumulator", SCOPE, cache=cache_dir)
    path = cache_dir / "verify.json"
    data = json.loads(path.read_text())
    for entry in data["entries"].values():
        entry["engine_version"] = 0  # an older engine wrote these
    path.write_text(json.dumps(data))
    warm = verify_data_structure("Accumulator", SCOPE, cache=cache_dir)
    assert warm.cache_hits == 0
    assert warm.cache_misses == len(warm.task_timings)


def test_truncated_entry_is_a_miss(tmp_path):
    """An entry with fewer results than the task's obligations must not
    silently shrink the report — it re-runs."""
    cache_dir = tmp_path / "cache"
    verify_data_structure("Accumulator", SCOPE, cache=cache_dir)
    path = cache_dir / "verify.json"
    data = json.loads(path.read_text())
    for entry in data["entries"].values():
        entry["results"] = entry["results"][:1]  # truncate (3 per pair)
    path.write_text(json.dumps(data))
    report = verify_data_structure("Accumulator", SCOPE, cache=cache_dir)
    assert report.condition_count == 12
    assert report.all_verified
    assert report.cache_hits == 0


def test_corrupt_cache_file_is_treated_as_empty(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "verify.json").write_text("{not json")
    report = verify_data_structure("Accumulator", SCOPE, cache=cache_dir)
    assert report.all_verified and report.cache_hits == 0
    # And the run still repopulated a valid cache file.
    warm = verify_data_structure("Accumulator", SCOPE, cache=cache_dir)
    assert warm.cache_hits == len(warm.task_timings)


def test_mutated_condition_reverifies(tmp_path, register_scope):
    """Editing a condition's formula misses the cache; the rest hit."""
    from test_fingerprint import make_mutated_registry
    import register_fixture

    cache = tmp_path / "cache"
    original = register_fixture.make_register_registry()
    verify_data_structure("Register", register_scope, registry=original,
                          cache=cache)
    mutated = make_mutated_registry()
    report = verify_data_structure("Register", register_scope,
                                   registry=mutated, cache=cache)
    assert report.all_verified
    assert report.cache_misses == 1  # only the edited read;read pair
    assert report.cache_hits == 3


def test_inverse_results_cached(tmp_path):
    session = Session(scope=SCOPE, cache=tmp_path / "cache")
    cold = session.check_inverses()
    warm = session.check_inverses()
    assert len(cold) == 8
    assert [repr(r) for r in cold] == [repr(r) for r in warm]
    assert all(r.cached for r in warm)
    assert not any(r.cached for r in cold)


def test_verify_all_warm_run_identical(tmp_path):
    cache = tmp_path / "cache"
    scope = Scope(objects=("a", "b"), max_seq_len=1)
    cold = verify_all(scope, backend="symbolic", cache=cache)
    warm = verify_all(scope, backend="symbolic", cache=cache)
    assert set(cold) == set(warm)
    for name in cold:
        assert repr(cold[name]) == repr(warm[name])
        assert cold[name].summary() == warm[name].summary()
        assert warm[name].cache_hits == len(warm[name].task_timings)


def test_resultcache_resolve():
    assert ResultCache.resolve(None) is None
    assert ResultCache.resolve(False) is None
    default = ResultCache.resolve(True)
    assert isinstance(default, ResultCache)
    explicit = ResultCache.resolve("/tmp/x")
    assert isinstance(explicit, ResultCache)
    assert ResultCache.resolve(explicit) is explicit


def test_the_file_is_one_sorted_dump_of_the_entries(tmp_path):
    """However many calls a session's store served, the file holds the
    bytes one ``json.dumps`` of every entry writes."""
    session = Session(scope=SCOPE, cache=tmp_path / "cache")
    first = session.verify("Accumulator")
    session.check_inverses("Accumulator")
    second = session.verify("HashSet")
    path = tmp_path / "cache" / "verify.json"
    data = json.loads(path.read_text())
    assert len(data["entries"]) == len(first.task_timings) + 1 \
        + len(second.task_timings)
    assert path.read_text() == json.dumps(
        {"schema": SCHEMA, "entries": data["entries"]}, sort_keys=True,
        separators=(",", ":"))


def test_another_writers_entries_survive_the_sessions_save(tmp_path):
    """Entries a second store writes between two calls of a session
    are read back in before the session writes again."""
    cache = tmp_path / "cache"
    session = Session(scope=SCOPE, cache=cache)
    first = session.verify("Accumulator")
    other = verify_data_structure("ListSet", SCOPE, cache=ResultCache(cache))
    assert other.cache_misses == 36
    second = session.verify("HashTable")
    entries = json.loads((cache / "verify.json").read_text())["entries"]
    assert len(entries) == len(first.task_timings) + 36 \
        + len(second.task_timings)
    # The session's store serves the other writer's entries too.
    assert session.verify("ListSet").cache_hits == 36


def test_an_unchanged_file_is_not_read_again(tmp_path, monkeypatch):
    reads = []
    read = ResultCache._read

    def counting(self):
        reads.append(self.path)
        return read(self)

    monkeypatch.setattr(ResultCache, "_read", counting)
    session = Session(scope=SCOPE, cache=tmp_path / "cache")
    session.verify("Accumulator")
    warm = session.verify("Accumulator")
    session.check_inverses("Accumulator")
    assert warm.cache_hits == len(warm.task_timings)
    assert len(reads) == 1
    # A different directory is a store of its own.
    session.verify("Accumulator", cache=tmp_path / "other")
    assert len(reads) == 2
