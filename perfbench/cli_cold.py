"""Workload ``cli_cold``: one ``python -m repro.cli`` process per command.

``check``, ``implies`` and ``normalize`` on the paper's university
(Example 1.1) and DBLP (Example 1.2) specifications and the bookstore
dataset, plus ``classify`` on the ebXML (Figure 5) and FAQ (Section 7)
DTDs.  Interpreter start-up and ``import repro.cli`` are most of each
command, a layer every other workload hides in its set-up.

Correctness: exit codes and verdicts are written out by hand below
from the paper's examples and the definitions, not taken from a run.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import time

from harness import (Outcome, Stopwatch, Tally, fresh_workdir, median,
                     python_child, timed_setup)

_U = "courses.course"
_S = f"{_U}.taken_by.student"

#: (name, argv after ``repro.cli``, exit code, stdout fragments,
#: stderr fragments).  ``{u}``/``{d}``/``{b}`` expand to the university,
#: DBLP and bookstore DTD/FD file pairs, ``{e}``/``{f}`` to the ebXML
#: and FAQ DTDs.
COMMANDS = (
    # Example 1.1: FD3 (sno -> name) is the one anomalous FD.
    ("check-university", ["check", "{u}"], 1,
     ["NOT in XNF: 1 anomalous FD(s)",
      f"anomalous: {_S}.@sno -> {_S}.name.S"], []),
    # cno is a key of course and a course has exactly one title.
    ("implies-university-yes",
     ["implies", "{u}", f"{_U}.@cno -> {_U}.title.S"], 0,
     ["implied"], []),
    # One student takes several courses (Figure 1).
    ("implies-university-no", ["implies", "{u}", f"{_S}.@sno -> {_U}"], 1,
     ["not implied"], []),
    # The fix of Example 1.1: name leaves student for a new element
    # type keyed by sno, in one create step.
    ("normalize-university", ["normalize", "{u}"], 0,
     ["<!ELEMENT student (grade)>"],
     ["step 1: create element type"]),
    # Example 1.2 / 5.2: FD5 (issue -> year) is anomalous.
    ("check-dblp", ["check", "{d}"], 1,
     ["NOT in XNF: 1 anomalous FD(s)",
      "anomalous: db.conf.issue -> db.conf.issue.inproceedings.@year"],
     []),
    ("implies-dblp-yes",
     ["implies", "{d}",
      "db.conf.issue -> db.conf.issue.inproceedings.@year"], 0,
     ["implied"], []),
    ("implies-dblp-no",
     ["implies", "{d}",
      "db.conf.issue.inproceedings.@year -> db.conf.issue"], 1,
     ["not implied"], []),
    # The fix of Example 1.2: year moves up to issue.
    ("normalize-dblp", ["normalize", "{d}"], 0,
     ["<!ATTLIST issue\n    year CDATA #REQUIRED>"],
     ["step 1: move db.conf.issue.inproceedings.@year"]),
    # publisher -> publisher_city and order -> item.currency are
    # anomalous; isbn -> format is not, since isbn is a key of book
    # (store.book.@isbn -> store.book is in Sigma).
    ("check-bookstore", ["check", "{b}"], 1,
     ["NOT in XNF: 2 anomalous FD(s)",
      "anomalous: store.book.@publisher -> store.book.@publisher_city",
      "anomalous: store.order -> store.order.item.@currency"], []),
    ("implies-bookstore-yes",
     ["implies", "{b}", "store.book.@isbn -> store.book.@publisher_city"],
     0, ["implied"], []),
    ("normalize-bookstore", ["normalize", "{b}"], 0,
     ["<!ATTLIST order\n    currency CDATA #REQUIRED"],
     ["step 1: move store.order.item.@currency",
      "step 2: create element type"]),
    # Figure 5: ebXML's BPSS fragment is simple and not recursive.
    ("classify-ebxml", ["classify", "{e}"], 0,
     ["recursive:   False", "simple:      True"], []),
    # Section 7: the FAQ DTD is recursive, neither simple nor
    # disjunctive.
    ("classify-faq", ["classify", "{f}"], 0,
     ["recursive:   True", "simple:      False",
      "disjunctive: False"], []),
)


def _write_inputs(workdir: str) -> dict[str, list[str]]:
    from repro.datasets import bookstore, dblp, ebxml, faq, university
    files = {
        "u": (university.UNIVERSITY_DTD, university.UNIVERSITY_FDS),
        "d": (dblp.DBLP_DTD, dblp.DBLP_FDS),
        "b": (bookstore.BOOKSTORE_DTD, bookstore.BOOKSTORE_FDS),
        "e": (ebxml.EBXML_DTD, None),
        "f": (faq.FAQ_DTD, None),
    }
    expansion = {}
    for key, (dtd_text, fds_text) in files.items():
        paths = [os.path.join(workdir, f"{key}.dtd")]
        with open(paths[0], "w") as handle:
            handle.write(dtd_text)
        if fds_text is not None:
            paths.append(os.path.join(workdir, f"{key}.fds"))
            with open(paths[1], "w") as handle:
                handle.write(fds_text)
        expansion["{" + key + "}"] = paths
    return expansion


def _argv(template: list[str], expansion: dict[str, list[str]],
          ) -> list[str]:
    argv = []
    for part in template:
        argv.extend(expansion.get(part, [part]))
    return argv


def _verify(tally: Tally, name: str, expected_rc: int, out_parts: list,
            err_parts: list, rc: int, stdout: str, stderr: str) -> None:
    tally.record(rc == expected_rc
                 and all(part in stdout for part in out_parts)
                 and all(part in stderr for part in err_parts),
                 f"{name}: exit {rc}, expected {expected_rc} and its "
                 "verdict")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    tally = outcome.tally
    workdir = fresh_workdir("cli_cold")
    watch = Stopwatch()
    setup_wall, setup_s, expansion = timed_setup(
        watch, ["repro.cli"], _write_inputs, workdir)
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.metrics["setup_s_wall"] = (setup_wall, "s")
    rng = random.Random(f"perfbench.cli_cold:{seed}")
    if trace:
        return _traced(outcome, expansion, rng)

    # Warm-up, unmeasured: one command per subcommand byte-compiles
    # everything the measured commands import.
    for template in {command[1][0]: command[1]
                     for command in COMMANDS}.values():
        python_child(["-m", "repro.cli", *_argv(template, expansion)])
    watch.restart()
    walls: dict[str, list[float]] = {}
    corrected: dict[str, list[float]] = {}
    rss: list[float] = []
    started = time.perf_counter()
    cycle_s = 0.0
    while not walls or (time.perf_counter() - started + cycle_s
                        <= seconds):
        cycle_started = time.perf_counter()
        cycle = list(COMMANDS)
        rng.shuffle(cycle)
        for name, template, rc, out_parts, err_parts in cycle:
            finished, corrected_s = watch.time_child(
                [sys.executable, "-m", "repro.cli",
                 *_argv(template, expansion)])
            _verify(tally, name, rc, out_parts, err_parts,
                    finished.returncode, finished.stdout.decode(),
                    finished.stderr.decode())
            walls.setdefault(name, []).append(finished.wall_s)
            corrected.setdefault(name, []).append(corrected_s)
            rss.append(finished.peak_rss_mb)
        cycle_s = time.perf_counter() - cycle_started
    def every(times: dict[str, list[float]]) -> list[float]:
        return [wall for values in times.values() for wall in values]

    def classify(times: dict[str, list[float]]) -> list[float]:
        return times["classify-ebxml"] + times["classify-faq"]

    outcome.metrics.update({
        "command_s": (median(every(corrected)), "s"),
        "classify_s": (median(classify(corrected)), "s"),
        "command_s_wall": (median(every(walls)), "s"),
        "classify_s_wall": (median(classify(walls)), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    })
    outcome.notes.update(commands=len(every(walls)),
                         command_median_s={
                             name: round(median(values), 4)
                             for name, values in sorted(walls.items())})
    return outcome


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    from repro import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _traced(outcome: Outcome, expansion: dict, rng: random.Random,
            ) -> Outcome:
    """The same commands through ``repro.cli.main`` in-process, so the
    layers below start-up can be timed; ``run.py`` adds the start-up
    layers from fresh interpreters."""
    from repro import obs
    from repro.obs import metrics as obs_metrics

    from layers import (ROOT, Tracer, engine_metrics, nonrepeating,
                        summarize)
    tally = outcome.tally
    cycle = list(COMMANDS)
    rng.shuffle(cycle)

    def one_cycle(tracer: Tracer | None) -> float:
        total = 0.0
        for name, template, rc, out_parts, err_parts in cycle:
            argv = _argv(template, expansion)
            started = time.perf_counter()
            if tracer is None:
                result = _in_process(argv)
            else:
                with tracer.span(ROOT):
                    result = _in_process(argv)
            total += time.perf_counter() - started
            _verify(tally, name, rc, out_parts, err_parts, *result)
        return total

    one_cycle(None)  # warm-up: the commands' lazy imports
    untraced_s = one_cycle(None)
    tracer = Tracer()
    passes = []
    obs.enable()
    tracer.install()
    try:
        for _ in range(2):
            obs.reset()
            tracer.reset()
            traced_s = one_cycle(tracer)
            passes.append((traced_s, obs_metrics.counters_snapshot(),
                           summarize(tracer.spans)))
    finally:
        tracer.uninstall()
        obs.disable()
        obs.reset()
    traced_s, counters, summary = passes[0]
    changed = nonrepeating(counters, passes[1][1])
    outcome.layers.update(engine_metrics(summary, counters))
    outcome.layers.update({
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.attributed_share": summary.attributed,
        "trace.nonrepeating_counters": len(changed),
    })
    outcome.notes.update(nonrepeating_counters=changed,
                         self_ms=summary.self_ms())
    return outcome
