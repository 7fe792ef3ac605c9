"""The benchmark observatory (see ``docs/BENCHMARKS.md``).

A declarative registry of benchmarks over the PR-1 observability
counters and PR-2 guard stats:

* :mod:`repro.bench.registry` — the :func:`benchmark` decorator and
  :class:`Claim` (a paper complexity bound asserted on fitted growth);
* :mod:`repro.bench.suites` — the standard suite, absorbing the old
  ad-hoc ``benchmarks/bench_*.py`` scripts;
* :mod:`repro.bench.runner` — isolated execution: best-of-N wall
  time, deterministic operation-counter snapshots, tracemalloc peak;
* :mod:`repro.bench.schema` — the versioned ``BENCH_core.json`` shape;
* :mod:`repro.bench.compare` — the counter-based regression gate
  (wall time advisory-only);
* :mod:`repro.bench.slopes` — log-log / log-linear growth fitting;
* :mod:`repro.bench.cli` — ``python -m repro.bench`` and the main
  CLI's ``bench`` subcommand.

Usage::

    from repro.bench import benchmark

    @benchmark("closure.my_workload", series=(1, 2, 4), param="k")
    def my_workload(k):
        spec = build_spec(k)          # setup: not measured
        return lambda: spec.xnf_violations()   # body: measured
"""

from __future__ import annotations

import importlib

#: Public name -> defining submodule, loaded on first use (PEP 562):
#: the main CLI builds its ``bench`` subparser from
#: :mod:`repro.bench.cli` without loading the runner or the suites.
_EXPORTS = {
    "Benchmark": "registry", "Claim": "registry", "benchmark": "registry",
    "all_benchmarks": "registry", "get": "registry", "select": "registry",
    "load_default_suites": "registry",
    "isolate": "runner", "run_benchmark": "runner", "run_suite": "runner",
    "SCHEMA_VERSION": "schema", "BenchReportError": "schema",
    "validate": "schema",
    "compare_payloads": "compare", "gate": "compare",
    "load_report": "compare",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(
        importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
