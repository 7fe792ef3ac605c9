"""Standalone overhead gates and committed benchmark baselines.

The workloads themselves are registered declaratively in
``src/repro/bench/suites/`` and run through the benchmark observatory
(``xnf bench run [--only GROUP.]``; see ``docs/BENCHMARKS.md``).  The
``bench_*.py`` scripts here are the standalone <1 % overhead gates
(guard, runtime, journal, ledger, exporter, serve); committed counter
baselines for the CI regression gate live under ``baselines/``.
"""
