"""Workload ``normalize_scaled``: the implication engine at k=16.

In-process ``XMLSpec.parse`` -> ``xnf_violations`` (the XNF test, one
engine read many times) and ``XMLSpec.parse`` -> ``normalize`` ->
``serialize_dtd`` (the Figure 4 rewrite loop, which builds fresh
engines every round) on ``scaled_university_spec(16)``: sixteen
side-by-side copies of the Example 1.1 schema under one root.

Correctness, checked without trusting the closure engine:

* the XNF test reports exactly the sixteen copies of FD3
  (``student.@sno -> student.name.S``), the paper's anomalous FD;
* normalization takes exactly sixteen *create* steps, one per copy;
* its output passes the XNF test under ``engine="chase"``;
* Proposition 8 losslessness holds on a seeded conforming document.
"""

from __future__ import annotations

import random
import resource
import time

from harness import Outcome, Stopwatch, Tally, median, timed, timed_setup
from layers import NORMALIZE_STEPS, Checkpoints

K = 16
#: Share of the measured time spent on the XNF test; the rest runs
#: whole normalizations (at least one).
CHECK_SHARE = 0.15


def _inputs(seed: int) -> tuple[str, str, str]:
    """The k=16 spec as DTD/FD text, and a seeded conforming document
    that populates two of the copies (the tuple set is a product over
    populated copies, so two keep the losslessness check small)."""
    from repro.datasets.generators import scaled_university_spec
    from repro.dtd.serializer import serialize_dtd
    spec = scaled_university_spec(K)
    dtd_text = serialize_dtd(spec.dtd)
    fds_text = "".join(f"{fd}\n" for fd in spec.sigma)
    rng = random.Random(f"perfbench.normalize_scaled:{seed}")
    populated = set(rng.sample(range(K), 2))
    parts = ["<uni>"]
    for i in range(K):
        parts.append(f"<courses{i}>")
        if i in populated:
            names = {f"s{n}": rng.choice(("Deere", "Smith", "Jones"))
                     for n in range(5)}
            for course in range(rng.randint(2, 3)):
                parts.append(f'<course{i} cno="c{course}"><title{i}>'
                             f"T{course}</title{i}><taken_by{i}>")
                for sno in rng.sample(sorted(names), 2):
                    parts.append(
                        f'<student{i} sno="{sno}"><name{i}>{names[sno]}'
                        f"</name{i}><grade{i}>{rng.choice('ABC')}"
                        f"</grade{i}></student{i}>")
                parts.append(f"</taken_by{i}></course{i}>")
        parts.append(f"</courses{i}>")
    parts.append("</uni>")
    return dtd_text, fds_text, "".join(parts)


def _anomalous_fd(i: int) -> str:
    student = f"uni.courses{i}.course{i}.taken_by{i}.student{i}"
    return f"{student}.@sno -> {student}.name{i}.S"


def check_op(dtd_text: str, fds_text: str) -> list:
    from repro.spec import XMLSpec
    return XMLSpec.parse(dtd_text, fds_text).xnf_violations()


def normalize_op(dtd_text: str, fds_text: str):
    from repro.dtd.serializer import serialize_dtd
    from repro.spec import XMLSpec
    result = XMLSpec.parse(dtd_text, fds_text).normalize()
    text = serialize_dtd(result.dtd) + "".join(
        f"# FD: {fd}\n" for fd in result.sigma)
    return result, text


def _verify_check(tally: Tally, violations: list) -> None:
    expected = sorted(_anomalous_fd(i) for i in range(K))
    got = sorted(str(fd) for fd in violations)
    tally.record(got == expected,
                 f"XNF test reported {len(got)} anomalous FDs, "
                 f"expected the {K} copies of FD3")


def _verify_normalize(tally: Tally, inputs: tuple, result,
                      texts: list[str]) -> None:
    from repro.lossless.check import check_normalization_lossless
    from repro.spec import XMLSpec
    from repro.xnf.check import xnf_violations
    dtd_text, fds_text, document = inputs
    kinds = [step.kind for step in result.steps]
    tally.record(kinds == ["create"] * K,
                 f"normalization steps {kinds}, expected {K} creates")
    tally.record(not xnf_violations(result.dtd, result.sigma,
                                    engine="chase"),
                 "normalized output fails the XNF test under the chase")
    spec = XMLSpec.parse(dtd_text, fds_text)
    tree = spec.parse_document(document)
    tally.record(spec.document_satisfies(tree),
                 "seeded document does not satisfy Sigma")
    tally.record(check_normalization_lossless(result, spec.dtd, tree),
                 "normalization is lossy on the seeded document")
    tally.record(len(set(texts)) == 1,
                 "repeated normalizations serialized differently")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    tally = outcome.tally
    watch = Stopwatch()
    setup_wall, setup_s, inputs = timed_setup(
        watch, ["repro.spec", "repro.datasets.generators",
                "repro.lossless.check"], _inputs, seed)
    dtd_text, fds_text, _ = inputs
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.metrics["setup_s_wall"] = (setup_wall, "s")
    if trace:
        return _traced(outcome, inputs)

    # Half the XNF tests run before the normalizations and half after,
    # so their median spans the whole run, not one stretch of it.
    check_block_s = CHECK_SHARE * seconds / 2
    check_s: list[float] = []
    check_wall: list[float] = []

    def check_block() -> None:
        block_started = time.perf_counter()
        while time.perf_counter() - block_started < check_block_s:
            wall, elapsed, violations = watch.time(check_op, dtd_text,
                                                   fds_text)
            check_wall.append(wall)
            check_s.append(elapsed)
            _verify_check(tally, violations)

    started = time.perf_counter()
    check_block()
    normalize_s: list[float] = []
    normalize_wall: list[float] = []
    texts: list[str] = []
    result = None
    with Checkpoints(watch, NORMALIZE_STEPS):
        while not normalize_s or (time.perf_counter() - started
                                  + median(normalize_wall)
                                  <= seconds - check_block_s):
            wall, elapsed, (result, text) = watch.time(
                normalize_op, dtd_text, fds_text)
            normalize_wall.append(wall)
            normalize_s.append(elapsed)
            texts.append(text)
    check_block()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _verify_normalize(tally, inputs, result, texts)
    outcome.metrics.update({
        "normalize_s": (median(normalize_s), "s"),
        "check_s": (median(check_s), "s"),
        "normalize_s_wall": (median(normalize_wall), "s"),
        "check_s_wall": (median(check_wall), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    })
    outcome.notes.update(normalize_samples=len(normalize_s),
                         check_samples=len(check_s))
    return outcome


def _traced(outcome: Outcome, inputs: tuple) -> Outcome:
    from repro import obs
    from repro.obs import metrics as obs_metrics

    from layers import (ROOT, Tracer, engine_metrics, nonrepeating,
                        summarize)
    dtd_text, fds_text, _ = inputs
    tally = outcome.tally

    def check_times(count: int) -> list[float]:
        times = []
        for _ in range(count):
            elapsed, violations = timed(check_op, dtd_text, fds_text)
            _verify_check(tally, violations)
            times.append(elapsed)
        return times

    # The overhead ratio is taken on the XNF test: a third k=16
    # normalization only for it would bring the run near its time limit
    # on a slow machine.
    untraced_check_s = median(check_times(5))
    tracer = Tracer()
    passes = []
    obs.enable()
    tracer.install()
    try:
        for _ in range(2):
            obs.reset()
            tracer.reset()
            traced_check_s = median(check_times(5))
            obs.reset()
            tracer.reset()
            with tracer.span(ROOT):
                normalize_elapsed, (result, text) = timed(
                    normalize_op, dtd_text, fds_text)
            passes.append((traced_check_s, normalize_elapsed,
                           obs_metrics.counters_snapshot(),
                           summarize(tracer.spans), result, text))
    finally:
        tracer.uninstall()
        obs.disable()
        obs.reset()
    (traced_check_s, normalize_traced_s, counters, summary, result,
     text), second = passes[0], passes[1]
    _verify_normalize(tally, inputs, result, [text, second[5]])
    changed = nonrepeating(counters, second[2])
    outcome.layers.update(engine_metrics(summary, counters))
    outcome.layers.update({
        "trace.overhead_ratio": traced_check_s / untraced_check_s,
        "trace.attributed_share": summary.attributed,
        "trace.nonrepeating_counters": len(changed),
    })
    outcome.notes.update(traced_normalize_s=round(normalize_traced_s, 4),
                         nonrepeating_counters=changed,
                         self_ms=summary.self_ms())
    return outcome
