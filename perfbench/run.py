"""The repository benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload normalize_scaled --seed 1 \
        --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's
observability off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics (see ``layers.py``).  Each run prints a
human-readable report, an environment record, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Every run checks the program's outputs against references that do not
come from the code under test; any mismatch, refusal or lost request
counts in ``failed`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

#: Per-layer metrics (``--trace 1``), in report order, with units.
#: ``layer_map.json`` records which end-to-end metric each should move.
LAYER_UNITS = {
    "startup.interpreter_ms": "ms", "startup.import_ms": "ms",
    "startup.modules": "count",
    "dtd.parse_ms": "ms", "fd.parse_ms": "ms", "spec.build_ms": "ms",
    "spec.builds": "count", "dtd.paths_ms": "ms",
    "implication.queries": "count", "implication.cache_hit_ratio": "ratio",
    "implication.engines": "count", "implication.trivial_queries": "count",
    "implication.fallbacks": "count",
    "closure.calls": "count", "closure.ms": "ms",
    "closure.iterations": "count",
    "chase.calls": "count", "chase.ms": "ms", "chase.steps": "count",
    "chase.branches": "count",
    "xnf.anomalous_self_ms": "ms", "xnf.candidates": "count",
    "normalize.rounds": "count", "normalize.steps": "count",
    "normalize.transform_self_ms": "ms",
    "serialize.ms": "ms",
    "runtime.task_p50_ms": "ms", "runtime.task_p99_ms": "ms",
    "runtime.overhead_ms_per_task": "ms",
    "runtime.journal_ms_per_task": "ms",
    "runtime.journal.appended": "count", "runtime.pool.spawned": "count",
    "serve.implication_p50_ms": "ms", "serve.xnf_check_p50_ms": "ms",
    "serve.normalize_p50_ms": "ms", "serve.transport_ms": "ms",
    "serve.cache_hit_ratio": "ratio", "serve.shed": "count",
    "trace.overhead_ratio": "ratio", "trace.attributed_share": "ratio",
    "trace.nonrepeating_counters": "count",
}

#: The end-to-end metrics every ``--trace 0`` run reports, and what
#: each means on each workload: (workload metric, scale to the unit).
#: ``setup_s`` and ``peak_rss_mb`` mean the same thing everywhere.
END_TO_END = {
    "setup_s": "s", "op_ms": "ms", "alt_ms": "ms", "peak_rss_mb": "MB",
}
CONTRACT = {
    "normalize_scaled": {"op_ms": ("normalize_s", 1000.0),
                         "alt_ms": ("check_s", 1000.0)},
    "batch_corpus": {"op_ms": ("ms_per_task", 1.0),
                     "alt_ms": ("ms_per_task_journaled", 1.0)},
    "serve_mixed": {"op_ms": ("latency_p50_ms", 1.0),
                    "alt_ms": ("ms_per_request_at_capacity", 1.0)},
    "cli_cold": {"op_ms": ("command_s", 1000.0),
                 "alt_ms": ("classify_s", 1000.0)},
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CONTRACT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already pinned: the
    in-process workloads' counters depend on set iteration order."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__),
                   *sys.argv[1:]], env)


def _startup_layers() -> dict[str, float]:
    from harness import median, python_child
    interpreter = median([python_child(["-c", "pass"]).wall_s
                          for _ in range(5)])
    imported = median([python_child(["-c", "import repro.cli"]).wall_s
                       for _ in range(5)])
    count = python_child(["-c", "import sys, repro.cli; "
                          "print(len(sys.modules))"])
    return {"startup.interpreter_ms": interpreter * 1000.0,
            "startup.import_ms": (imported - interpreter) * 1000.0,
            "startup.modules": int(count.stdout)}


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    _pin_hash_seed()
    import harness
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "cli.py")):
        print(f"error: no program source under {harness.SRC}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    shutil.rmtree(harness.WORK, ignore_errors=True)
    os.makedirs(harness.WORK)
    module = __import__(args.workload)
    try:
        env = harness.environment()
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
        if args.trace:
            outcome.layers.update(_startup_layers())
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)
        try:
            os.rmdir(harness.WORK_ROOT)
        except OSError:
            pass  # another run in this checkout still uses it

    tally = outcome.tally
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_share {tally.failed_share:.6g} "
          f"({tally.failed}/{tally.attempted})")
    for problem in tally.problems:
        print(f"{args.workload} FAILED {problem}")
        print(f"{args.workload} FAILED {problem}", file=sys.stderr)
    env.update(workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, **outcome.notes)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics = {name: {"value": float(outcome.layers.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = {name: value for name, (value, _)
                  in outcome.metrics.items()}
        metrics = {"setup_s": {"value": values["setup_s"], "unit": "s"},
                   "peak_rss_mb": {"value": values["peak_rss_mb"],
                                   "unit": "MB"}}
        for name, (source, scale) in CONTRACT[args.workload].items():
            metrics[name] = {"value": values[source] * scale,
                             "unit": END_TO_END[name]}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
