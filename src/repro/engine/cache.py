"""The content-addressed verification result cache.

Already-proven obligations are skipped across runs: a task whose key
(see :mod:`.fingerprint`) appears in the cache is answered from the
persisted entry, restoring the case count and elapsed time recorded
when it was actually proven — so a warm rerun produces byte-identical
reports while paying only for fingerprinting.

Only fully *verified* outcomes are cached.  Failures always re-run:
they are exactly the obligations a developer is iterating on, and
re-running them regenerates fresh counterexamples (which, holding
arbitrary state values, would bloat the JSON anyway).

Persistence is one JSON file, ``.repro-cache/verify.json`` by default.
Corrupt files are treated as empty; entries recorded by a different
:data:`~repro.engine.fingerprint.ENGINE_VERSION` are dropped at load.

A store lives across calls (a :class:`~repro.api.Session` keeps one
per cache directory): it reads the file once, serializes each entry
once and writes the file by joining the kept texts, byte for byte what
one ``json.dumps(..., sort_keys=True)`` of the whole file would give.
Before it serves its entries again, and before it writes, it re-stats
the file; if another writer replaced it, it reads it again and keeps
its own entries the file lacks.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

from .fingerprint import ENGINE_VERSION
from .tasks import ObligationOutcome, TaskOutcome, VerifyTask

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: On-disk layout version of the cache file itself.
SCHEMA = 1


class ResultCache:
    """A persistent key -> verified-outcome store."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.path = self.root / "verify.json"
        self._entries: dict[str, dict[str, Any]] | None = None
        #: Key -> the entry's ``"key":{...}`` text in the file.
        self._texts: dict[str, str] = {}
        #: The file as last read or written (see :func:`_signature`).
        self._seen: tuple | None = None
        self._dirty = False
        self._lock = threading.RLock()

    @classmethod
    def resolve(cls, cache) -> "ResultCache | None":
        """Coerce a user-facing ``cache`` argument.

        ``None``/``False`` disable caching; ``True`` uses the default
        directory; a path selects that directory; a :class:`ResultCache`
        is used as-is.
        """
        if cache is None or cache is False:
            return None
        if cache is True:
            return cls()
        if isinstance(cache, ResultCache):
            return cache
        return cls(cache)

    # -- persistence ---------------------------------------------------------

    def _load(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            if self._entries is None:
                self._entries = self._read()
            return self._entries

    def _read(self) -> dict[str, dict[str, Any]]:
        """The file's entries of this engine version; records what was
        read in :attr:`_seen`."""
        entries: dict[str, dict[str, Any]] = {}
        self._seen = None
        try:
            with open(self.path, encoding="utf-8") as handle:
                self._seen = _signature(os.fstat(handle.fileno()))
                data = json.load(handle)
            if isinstance(data, dict) and data.get("schema") == SCHEMA:
                raw = data.get("entries", {})
                if isinstance(raw, dict):
                    entries = {
                        key: entry for key, entry in raw.items()
                        if isinstance(entry, dict)
                        and entry.get("engine_version") == ENGINE_VERSION}
        except (OSError, ValueError):
            entries = {}
        return entries

    def refresh(self) -> None:
        """Re-stat the file; when another writer replaced it since this
        store last read or wrote it, read it again, keeping the entries
        of this store that it lacks (they are written on the next
        :meth:`save`)."""
        with self._lock:
            if self._entries is None:
                return  # read on first use
            try:
                seen = _signature(os.stat(self.path))
            except OSError:
                seen = None
            if seen == self._seen:
                return
            entries = self._read()
            for key, entry in self._entries.items():
                if entries.setdefault(key, entry) is entry:
                    self._dirty = True
                else:
                    self._texts.pop(key, None)
            self._entries = entries

    def save(self) -> None:
        """Persist new entries (atomic rename; no-op when clean)."""
        with self._lock:
            if not self._dirty or self._entries is None:
                return
            self.refresh()
            texts = self._texts
            parts = []
            for key in sorted(self._entries):
                text = texts.get(key)
                if text is None:
                    text = texts[key] = json.dumps(key) + ":" + json.dumps(
                        self._entries[key], sort_keys=True,
                        separators=(",", ":"))
                parts.append(text)
            # What ``json.dumps({"schema": SCHEMA, "entries": entries},
            # sort_keys=True, separators=(",", ":"))`` writes.
            text = (f'{{"entries":{{{",".join(parts)}}},'
                    f'"schema":{json.dumps(SCHEMA)}}}')
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".json.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                self._seen = _signature(os.fstat(handle.fileno()))
            os.replace(tmp, self.path)
            self._dirty = False

    # -- lookup / store ------------------------------------------------------

    def get(self, task: VerifyTask,
            expected_results: int | None = None) -> TaskOutcome | None:
        """The cached outcome for ``task``, or ``None`` on a miss.

        ``expected_results`` guards reassembly: an entry whose result
        list doesn't match the task's obligation count (truncated write,
        hand edit) is treated as a miss rather than silently shrinking
        the report.
        """
        entry = self._load().get(task.key)
        if entry is None:
            return None
        try:
            results = tuple(
                ObligationOutcome(cases=int(r["cases"]),
                                  elapsed=float(r["elapsed"]),
                                  payload=r.get("payload"))
                for r in entry["results"])
            if expected_results is not None \
                    and len(results) != expected_results:
                return None
            return TaskOutcome(index=task.index,
                               elapsed=float(entry["elapsed"]),
                               results=results, cached=True)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, task: VerifyTask, outcome: TaskOutcome) -> None:
        """Record a fully verified outcome (failures are never cached)."""
        if not outcome.verified or outcome.cached:
            return
        entry = {
            "engine_version": ENGINE_VERSION,
            "label": task.label,
            "kind": task.kind,
            "backend": task.backend,
            "elapsed": outcome.elapsed,
            "results": [
                {"cases": r.cases, "elapsed": r.elapsed,
                 # Payloads are JSON-shaped by construction (stability
                 # verdicts); omitted entirely for classic proof tasks
                 # so their entries keep the historical shape.
                 **({"payload": r.payload} if r.payload is not None
                    else {})}
                for r in outcome.results],
        }
        with self._lock:
            self._load()[task.key] = entry
            self._texts.pop(task.key, None)
            self._dirty = True

    def __len__(self) -> int:
        return len(self._load())


def _signature(stat: os.stat_result) -> tuple:
    """What tells one version of the file from another: an atomic
    rename installs a new inode, a write moves the size or the mtime."""
    return stat.st_ino, stat.st_size, stat.st_mtime_ns
