"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload contended --seed 1 --seconds 20 --trace 0

It benchmarks the ``src/repro`` package of the checkout it lives in and
reads and writes only inside that checkout: ``perfbench/.work/`` holds
the engine cache the in-process workloads arm from, temporary
directories, and the span files of traced runs.

Standard output is a human-readable metric table followed by one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Exit status: 0 when every output checked out, 1 on a
correctness failure, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("contended", "large-state", "served", "cold-verify")


@dataclass(frozen=True)
class Paths:
    """The checkout, and where under it a run may write."""

    root: Path
    work: Path
    tmp: Path
    cache: Path


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload; the last line of "
                    "standard output is the JSON result.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window, in whole rounds or "
                             "passes (cold-verify makes at least three)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: cold-verify covers "
                             "Accumulator and RegisterCell only")
    parser.add_argument("--inject",
                        choices=("digest-mismatch", "non-serializable"),
                        help="self-test of the correctness gate (runtime "
                             "workloads): corrupt the first measured "
                             "batch's check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    work = BENCH / ".work"
    paths = Paths(root=ROOT, work=work, tmp=work / "tmp",
                  cache=work / "cache")
    paths.tmp.mkdir(parents=True, exist_ok=True)
    # Every process of the run — this one, the admission server and
    # any engine worker — shares one CPU.  The closed loop never needs
    # two at once, and on a shared VM a wake-up on an idle second vCPU
    # waits for the host's scheduler: over the same five served seeds,
    # pinning cut the spread of the admission p50 from 0.24 to 0.08.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Engine pools, the server's working directory and any other
    # temporary file stay inside the checkout.
    os.environ["TMPDIR"] = str(paths.tmp)
    tempfile.tempdir = None
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(src))

    from perfbench import metrics, offline, runtime

    if args.workload == "cold-verify":
        result = offline.run(args.seed, args.seconds, bool(args.trace),
                             paths, smoke=args.smoke)
    else:
        result = runtime.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), paths, inject=args.inject)
    print(metrics.table(args.workload, result, bool(args.trace)))
    print(metrics.result_line(result, bool(args.trace)), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
