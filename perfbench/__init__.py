"""The repository benchmark: closed-loop workloads over the public API,
one command per (workload, seed), outside-in layer tracing.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and every metric's definition.
"""
