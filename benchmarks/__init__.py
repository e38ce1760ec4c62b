"""Benchmark harness regenerating every figure and table of the paper.

Run with ``pytest benchmarks/ --benchmark-only``.  Each module regenerates one
figure/table of the evaluation (see the per-experiment index in
``docs/experiments.md``), prints the corresponding rows/series, and attaches
the headline numbers to the pytest-benchmark ``extra_info`` so they appear in
the saved benchmark JSON.
"""
