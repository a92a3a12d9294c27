#!/usr/bin/env python
"""Regenerate the checked-in bench baselines from a real run.

The CI regression gates compare against
``benchmarks/BENCH_verify_baseline.json`` and
``benchmarks/BENCH_runtime_baseline.json``.  When a legitimate change
moves the numbers (new structures, a faster engine, retimed hardware),
the baselines need a bump — and a hand-edited JSON blob is how gates
rot.  This helper reruns the exact bench invocations CI uses and writes
the fresh payloads over the baseline files, printing the old-vs-new
per-structure deltas so the bump is reviewable::

    PYTHONPATH=src python benchmarks/refresh_baselines.py            # both
    PYTHONPATH=src python benchmarks/refresh_baselines.py --suite runtime

Baselines are recorded on *your* hardware; the gate's
``--max-regression`` slack (2x in CI, with a floor for sub-millisecond
entries) absorbs machine differences, so refresh on a quiet machine and
commit the JSON with the change that moved the numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(REPO / "src"))

from repro.__main__ import main as repro_main  # noqa: E402

#: Baseline file -> the CI bench invocation that regenerates it (the
#: shards=1 leg; the shards=4 leg reuses the same baseline because the
#: regression gate only reads per-structure elapsed times).
SUITES = {
    "verify": (
        BENCH_DIR / "BENCH_verify_baseline.json",
        ["bench", "--backend", "symbolic", "--max-seq-len", "2",
         "--jobs", "2"],
    ),
    "runtime": (
        BENCH_DIR / "BENCH_runtime_baseline.json",
        ["bench", "--suite", "runtime", "--shards", "1", "--arm",
         "proved"],
    ),
}


def _elapsed_deltas(old: dict, new: dict) -> list[str]:
    lines = []
    old_structures = old.get("structures", {})
    for name, entry in sorted(new.get("structures", {}).items()):
        fresh = entry.get("elapsed")
        prior = old_structures.get(name, {}).get("elapsed")
        if fresh is None:
            continue
        if prior is None:
            lines.append(f"  {name}: (new) {fresh:.3f}s")
        else:
            lines.append(f"  {name}: {prior:.3f}s -> {fresh:.3f}s")
    for name in sorted(set(old_structures) - set(new.get("structures", {}))):
        lines.append(f"  {name}: dropped from the sweep")
    return lines


def refresh(suite: str) -> int:
    baseline, invocation = SUITES[suite]
    try:
        old = json.loads(baseline.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        old = {}
    print(f"refresh_baselines: {suite}: repro "
          + " ".join(invocation + ["--output", baseline.name]))
    code = repro_main(invocation + ["--output", str(baseline)])
    if code != 0:
        print(f"refresh_baselines: {suite} bench failed (exit {code}); "
              f"baseline not trusted — inspect before committing",
              file=sys.stderr)
        return code
    new = json.loads(baseline.read_text(encoding="utf-8"))
    print(f"refresh_baselines: wrote {baseline}")
    for line in _elapsed_deltas(old, new):
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=(*SUITES, "all"),
                        default="all",
                        help="which baseline to regenerate (default: all)")
    args = parser.parse_args(argv)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    for suite in suites:
        code = refresh(suite)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
