"""Benchmark harness for harea: seeded workloads, correctness gates and a
span tracer that times the package's public functions from outside.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
