"""Workload ``batch_corpus``: 2000 small, unrelated specs through
``xnf batch``.

Tasks come from ``repro.runtime.corpus`` (simple, disjunctive and
nested families; implies, check and normalize), seeded by the workload
seed.  Every task parses a fresh spec and shares nothing with the
others, so per-spec set-up, parsing, the runtime's per-task overhead,
the chase (disjunctive family), the journal write path and the fork
pool all show here.  The untraced run times three ``xnf batch``
invocations through ``repro.cli.main`` in the benchmark process:
serial (``--workers 1``), serial with ``--journal --ledger
--heartbeat``, and ``--workers 2`` (which forks its workers from it).
Interpreter start-up is left to ``cli_cold``; in-process, a serial
batch is corrected for the machine's speed every quarter second (see
``harness.Stopwatch``), where a child process could be probed only at
its ends, which left the serial figure spreading 0.12-0.28 across seeds
on a noisy host.

Correctness: every task's verdict matches the committed reference
(``reference.py``), no task is lost or dead-lettered, and the three
modes print byte-identical summaries.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time

import reference
from harness import (Outcome, Stopwatch, Tally, fresh_workdir, median,
                     percentile, timed, timed_setup)
from layers import SPEC_PARSE, Checkpoints

TASKS = 2000
#: The untraced run sends the 2000 tasks as four 500-task manifests, so
#: each mode gets four samples and its median resists the seconds-long
#: slow phases of a shared machine.
CHUNKS = 4
#: The longest stretch of a serial batch between two speed probes.
CHECKPOINT_S = 0.25
MODES = {
    "serial": ["--workers", "1"],
    "parallel": ["--workers", "2"],
    "journaled": ["--workers", "1", "--journal", "{dir}/journal.jsonl",
                  "--ledger", "{dir}/ledger.jsonl",
                  "--heartbeat", "{dir}/heartbeat.jsonl"],
}


def _write_manifests(workdir: str, seed: int) -> list[str]:
    """The whole corpus, then its :data:`CHUNKS` consecutive slices."""
    from repro.runtime.corpus import generate_manifest
    whole = generate_manifest(TASKS, seed=seed)
    tasks = whole["tasks"]
    size = TASKS // CHUNKS
    parts = [whole] + [dict(whole, tasks=tasks[start:start + size])
                       for start in range(0, TASKS, size)]
    paths = []
    for index, payload in enumerate(parts):
        paths.append(os.path.join(workdir, f"manifest{index}.json"))
        with open(paths[-1], "w") as handle:
            json.dump(payload, handle)
    return paths


def _batch(argv: list[str]) -> tuple[int, str]:
    """``xnf batch <argv>`` in this process: (exit code, stdout)."""
    from repro import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["batch", *argv])
    return code, out.getvalue()


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def verify_summary(tally: Tally, summary: dict, manifest: dict,
                   expected: dict[str, str]) -> None:
    """Count every task whose verdict differs from the reference, and
    every task the batch lost or dead-lettered."""
    total = len(manifest["tasks"])
    tally.bulk(total, total - summary["counts"]["ok"], "tasks not ok")
    wrong = 0
    for task, record in zip(manifest["tasks"], summary["tasks"]):
        got = reference.batch_verdict(task["op"], record.get("result")) \
            if record.get("result") is not None else "missing"
        if not reference.matches(expected[reference.task_key(task)], got):
            wrong += 1
    tally.bulk(total, wrong + total - len(summary["tasks"]),
               "verdicts differing from the reference")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    workdir = fresh_workdir("batch_corpus")
    watch = Stopwatch()
    setup_wall, setup_s, (whole, *chunks) = timed_setup(
        watch, ["repro.cli", "repro.runtime.batch"], _write_manifests,
        workdir, seed)
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.metrics["setup_s_wall"] = (setup_wall, "s")
    expected = reference.load()
    if trace:
        return _traced(outcome, whole, _load(whole), expected)

    tally = outcome.tally
    per_task: dict[str, list[float]] = {mode: [] for mode in MODES}
    per_task_wall: dict[str, list[float]] = {mode: [] for mode in MODES}
    _batch([chunks[0], *MODES["serial"]])  # warm-up: lazy imports
    watch.restart()
    started = time.perf_counter()
    turn = 0
    # Every chunk once in every mode it runs in; then more passes over
    # the chunks while the measured time allows another one.
    while turn < CHUNKS or (time.perf_counter() - started
                            + (time.perf_counter() - started) / turn
                            <= seconds):
        index = turn % CHUNKS
        path = chunks[index]
        # The ungated --workers 2 mode runs on the first chunk only,
        # keeping a run near its measured time.
        modes = list(MODES) if turn == 0 else ["serial", "journaled"]
        summaries = []
        for mode in modes:
            for name in ("journal", "ledger", "heartbeat"):
                stale = os.path.join(workdir, f"{name}.jsonl")
                if os.path.exists(stale):
                    os.unlink(stale)
            flags = [flag.format(dir=workdir) for flag in MODES[mode]]
            # Forked workers would probe too, so a parallel batch is
            # probed at its ends only.
            with Checkpoints(watch, SPEC_PARSE if mode != "parallel"
                             else (), every_s=CHECKPOINT_S):
                wall, corrected_s, (code, summary) = watch.time(
                    _batch, [path, *flags])
            tally.record(code == 0, f"xnf batch {mode} exited {code}")
            per_task_wall[mode].append(wall * 1000.0 * CHUNKS / TASKS)
            per_task[mode].append(corrected_s * 1000.0 * CHUNKS / TASKS)
            summaries.append(summary)
        tally.record(len(set(summaries)) == 1,
                     "batch modes printed different summaries")
        if turn < CHUNKS:
            verify_summary(tally, json.loads(summaries[0]), _load(path),
                           expected)
        turn += 1
    ms = {mode: median(values) for mode, values in per_task.items()}
    wall = {mode: median(values) for mode, values in per_task_wall.items()}
    outcome.metrics.update({
        "tasks_per_s": (1000.0 / ms["serial"], "1/s"),
        "tasks_per_s_journaled": (1000.0 / ms["journaled"], "1/s"),
        "tasks_per_s_parallel": (1000.0 / ms["parallel"], "1/s"),
        "ms_per_task": (ms["serial"], "ms"),
        "ms_per_task_journaled": (ms["journaled"], "ms"),
        "ms_per_task_parallel": (ms["parallel"], "ms"),
        "ms_per_task_wall": (wall["serial"], "ms"),
        "ms_per_task_parallel_wall": (wall["parallel"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    })
    outcome.notes.update(samples={mode: len(values)
                                  for mode, values in per_task.items()})
    return outcome


def _traced(outcome: Outcome, manifest_path: str, manifest: dict,
            expected: dict[str, str]) -> Outcome:
    """In-process passes through ``repro.runtime.batch.run_batch``."""
    from repro import obs
    from repro.obs import metrics as obs_metrics
    from repro.runtime.batch import run_batch
    from repro.runtime.breaker import BreakerBoard
    from repro.runtime.journal import open_journal
    from repro.runtime.manifest import load
    from repro.runtime.pool import PoolBackend
    from repro.runtime.retry import RetryPolicy

    from layers import (ROOT, Tracer, covered_s, engine_metrics,
                        nonrepeating, summarize)
    tally = outcome.tally
    loaded = load(manifest_path)
    summaries = []

    def plain():
        task_walls: list[float] = []
        wall, summary = timed(
            run_batch, loaded,
            on_task_done=lambda done: task_walls.append(done.wall_s))
        summaries.append(summary)
        return wall, task_walls

    untraced_s, task_walls = plain()

    policy = RetryPolicy(seed=loaded.seed)
    board = BreakerBoard()
    journal = open_journal(os.path.join(os.path.dirname(manifest_path),
                                        "journal.jsonl"),
                           manifest=loaded, policy=policy, board=board)
    try:
        journaled_s, summary = timed(run_batch, loaded, policy=policy,
                                     board=board, journal=journal)
    finally:
        journal.close()
    summaries.append(summary)

    pool = PoolBackend(2)
    _, summary = timed(run_batch, loaded, backend=pool)
    summaries.append(summary)

    tracer = Tracer()
    passes = []
    obs.enable()
    tracer.install()
    try:
        for _ in range(2):
            obs.reset()
            tracer.reset()
            with tracer.span(ROOT):
                traced_s, summary = timed(run_batch, loaded)
            summaries.append(summary)
            passes.append((traced_s, obs_metrics.counters_snapshot(),
                           list(tracer.spans)))
    finally:
        tracer.uninstall()
        obs.disable()
        obs.reset()
    traced_s, counters, spans = passes[0]
    summary_text = {json.dumps(item, sort_keys=True) for item in summaries}
    tally.record(len(summary_text) == 1,
                 "in-process batch passes produced different summaries")
    verify_summary(tally, summaries[0], manifest, expected)
    work_s = covered_s(spans, {"spec.parse", "spec.build", "spec.op"})
    changed = nonrepeating(counters, passes[1][1])
    summary = summarize(spans)
    outcome.layers.update(engine_metrics(summary, counters))
    outcome.layers.update({
        "runtime.task_p50_ms": percentile(task_walls, 0.50) * 1000.0,
        "runtime.task_p99_ms": percentile(task_walls, 0.99) * 1000.0,
        "runtime.overhead_ms_per_task":
            (traced_s - work_s) * 1000.0 / TASKS,
        "runtime.journal_ms_per_task":
            (journaled_s - untraced_s) * 1000.0 / TASKS,
        "runtime.journal.appended": journal.stats()["appended"],
        "runtime.pool.spawned": pool.stats.spawned,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.attributed_share": summary.attributed,
        "trace.nonrepeating_counters": len(changed),
    })
    outcome.notes.update(nonrepeating_counters=changed,
                         self_ms=summary.self_ms())
    return outcome
