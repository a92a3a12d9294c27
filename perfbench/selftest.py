"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` mirrors ``perfbench/metrics.py``; that
every workload passes its correctness gate and prints every declared
metric with its unit under ``--trace 0`` (all of them positive) and
``--trace 1``; that the traced runs put the largest layer share where
each workload is meant to put it; that an injected digest mismatch and
an injected non-serializable batch are each counted as failed and fail
the command; and that a directory holding only ``BENCHMARK.json`` and
``perfbench/`` makes the benchmark exit non-zero without a result.
Stops at the first broken expectation (exit 1).  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[0] = str(ROOT)

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

#: The in-client runtime layers the wire must outweigh on ``served``.
CLIENT_LAYERS = ("impls.state.share", "impls.apply.share",
                 "transaction.rollback.share")


def expect(condition: bool, message: str, detail: str = "") -> None:
    if not condition:
        print(f"selftest: FAILED: {message}\n{detail}", file=sys.stderr)
        raise SystemExit(1)
    print(f"selftest: ok: {message}")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT,
          script: Path = BENCH / "run.py"):
    """Run the benchmark at smoke size; ``(exit code, result, process)``."""
    command = [sys.executable, str(script), "--workload", workload,
               "--seed", "7", "--seconds", "2", "--trace", str(trace),
               "--smoke", *extra]
    process = subprocess.run(command, cwd=cwd, capture_output=True,
                             text=True, timeout=900)
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return process.returncode, result, process


def check_declarations() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(END_TO_END),
           "BENCHMARK.json end_to_end mirrors metrics.END_TO_END")
    expect([(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(PER_LAYER),
           "BENCHMARK.json per_layer mirrors metrics.PER_LAYER")
    expect([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the workloads run.py accepts")


def check_run(workload: str, trace: int) -> dict:
    code, result, process = bench(workload, trace)
    expect(code == 0 and result is not None and result["correct"]
           and result["failed"] == 0 and result["attempted"] > 0,
           f"{workload} --trace {trace} passes its correctness gate",
           process.stderr[-3000:])
    declared = {name: unit for name, unit, *_ in
                (PER_LAYER if trace else END_TO_END)}
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    expect(emitted == declared,
           f"{workload} --trace {trace} emits every declared metric with "
           f"its unit")
    if not trace:
        zero = [name for name, metric in result["metrics"].items()
                if not metric["value"] > 0]
        expect(not zero, f"{workload}: every end-to-end metric is positive",
               f"zero: {zero}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def check_shares(workload: str, values: dict) -> None:
    shares = ("impls.state.share", "impls.apply.share",
              "gatekeeper.check.share", "transaction.rollback.share")
    largest = max(shares, key=values.__getitem__)
    if workload == "contended":
        expect(largest == "gatekeeper.check.share",
               "contended: the admission scan is the largest layer share",
               str({name: values[name] for name in shares}))
    elif workload == "large-state":
        expect(largest == "impls.state.share",
               "large-state: abstract-state materialization is the largest "
               "layer share", str({name: values[name] for name in shares}))
    elif workload == "served":
        wire = values["service.transit.share"] + values["service.encode.share"]
        expect(all(wire > values[name] for name in CLIENT_LAYERS),
               "served: wire transit + encode outweigh every client layer",
               str({"wire": wire,
                    **{name: values[name] for name in CLIENT_LAYERS}}))


def check_injections() -> None:
    for workload, fault in (("served", "digest-mismatch"),
                            ("contended", "non-serializable")):
        code, result, process = bench(workload, 0, "--inject", fault)
        expect(code == 1 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"an injected {fault} on {workload} is counted as failed and "
               f"fails the command", process.stderr[-3000:])


def check_without_sources() -> None:
    bare = BENCH / ".work" / "tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, result, process = bench("contended", 0, cwd=bare,
                                      script=bare / "perfbench" / "run.py")
        expect(code != 0 and not process.stdout.strip(),
               "without src/repro the benchmark exits non-zero and prints no "
               "result", process.stdout[-1000:])
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_declarations()
    check_without_sources()
    for workload in WORKLOADS:
        check_run(workload, 0)
        values = check_run(workload, 1)
        check_shares(workload, values)
    check_injections()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
