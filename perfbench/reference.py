"""Reference verdicts for the seeded spec corpus.

``repro.runtime.corpus`` draws every task from a small finite domain:
five DTDs, Σ sequences of one or two FDs over a fixed path pool (never
both directions of one pair), or ordered samples of one to three of
the nested family's five candidate FDs, and implication queries over
the same pools.  :func:`domain` enumerates that whole domain, so a
reference built over it covers the corpus of *any* seed.

The reference file maps a digest of each task's content to its verdict
as decided by ``xnf batch --ensemble strict`` (closure, chase and
brute force must agree) on the code the benchmark was committed with.
The workloads compare the verdicts of the code under test against it.

Rebuild it (about 25 minutes on two cores) with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "data", "corpus_verdicts.tsv")

#: How many corpus seeds :func:`domain` samples to find the DTDs and
#: path pools, and checks its enumeration against.
_PROBE_SEEDS = 100
_PROBE_COUNT = 2000
_FD_LINE = re.compile(r"^(\S+) -> (\S+)$")


def task_key(task: dict) -> str:
    payload = json.dumps([task["op"], task["dtd_text"], task["fds_text"],
                          task.get("fd") or ""])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()) \
        .hexdigest()[:12]


def batch_verdict(op: str, result: dict) -> str:
    """The comparable verdict of one ``xnf batch`` task result."""
    if op == "implies":
        return "implied" if result["implied"] else "not-implied"
    if op == "check":
        return "xnf" if result["in_xnf"] else \
            "violations:" + _digest(result["violations"])
    return f"steps={result['steps']};final_in_xnf={result['final_in_xnf']}"


def serve_verdict(op: str, body: dict) -> str:
    """The same verdict from an ``xnf serve`` response body; a
    normalize response carries its steps but not the final XNF test,
    so only the step count is compared (see :func:`matches`)."""
    if op == "implies":
        return {"yes": "implied", "no": "not-implied"}.get(
            body.get("verdict"), f"unknown:{body.get('verdict')}")
    if op == "check":
        return "xnf" if body["in_xnf"] else \
            "violations:" + _digest(body["violations"])
    return f"steps={len(body['steps'])}"


def matches(expected: str, got: str) -> bool:
    return expected == got or (got.startswith("steps=")
                               and expected.startswith(got + ";"))


def load() -> dict[str, str]:
    with open(REFERENCE) as handle:
        return dict(line.rstrip("\n").split("\t") for line in handle)


def domain() -> list[dict]:
    """Every task the corpus generator can emit, once each."""
    from repro.runtime.corpus import iter_tasks
    pools: dict[str, set[str]] = {}
    candidates: dict[str, set[str]] = {}
    observed: set[str] = set()
    for seed in range(_PROBE_SEEDS):
        for task in iter_tasks(_PROBE_COUNT, seed=seed):
            observed.add(task_key(task))
            lines = task["fds_text"].split("\n") + [task.get("fd") or ""]
            for line in filter(None, lines):
                match = _FD_LINE.match(line)
                if match and "course" not in task["dtd_text"]:
                    pools.setdefault(task["dtd_text"], set()).update(
                        match.groups())
                else:
                    candidates.setdefault(task["dtd_text"],
                                          set()).add(line)
    tasks: list[dict] = []

    def emit(dtd: str, sigma: tuple[str, ...], queries: list[str]):
        fds_text = "\n".join(sigma)
        for op in ("check", "normalize"):
            tasks.append({"op": op, "dtd_text": dtd,
                          "fds_text": fds_text})
        for query in queries:
            tasks.append({"op": "implies", "dtd_text": dtd,
                          "fds_text": fds_text, "fd": query})

    for dtd, pool in sorted(pools.items()):
        pairs = [f"{lhs} -> {rhs}" for lhs, rhs
                 in itertools.permutations(sorted(pool), 2)]
        for first in pairs:
            emit(dtd, (first,), pairs)
            lhs, rhs = _FD_LINE.match(first).groups()
            for second in pairs:
                if second not in (first, f"{rhs} -> {lhs}"):
                    emit(dtd, (first, second), pairs)
    for dtd, lines in sorted(candidates.items()):
        ordered = sorted(lines)
        for size in (1, 2, 3):
            for sigma in itertools.permutations(ordered, size):
                emit(dtd, sigma, ordered)
    for index, task in enumerate(tasks):
        task["id"] = f"ref-{index:05d}"
    missing = observed - {task_key(task) for task in tasks}
    if missing:
        raise RuntimeError(f"{len(missing)} corpus tasks fall outside "
                           "the enumerated domain")
    return tasks


def build() -> int:
    """Decide the whole domain with ``xnf batch --ensemble strict``."""
    sys.path.insert(0, HERE)
    import harness
    sys.path.insert(0, harness.SRC)
    from repro.runtime.manifest import MANIFEST_SCHEMA, MANIFEST_VERSION
    os.makedirs(harness.WORK, exist_ok=True)
    tasks = domain()
    manifest = os.path.join(harness.WORK, "reference.jsonl")
    with open(manifest, "w") as handle:
        handle.write(json.dumps({"schema": MANIFEST_SCHEMA,
                                 "version": MANIFEST_VERSION,
                                 "defaults": {"seed": 0},
                                 "count": len(tasks)}) + "\n")
        for task in tasks:
            handle.write(json.dumps(task, sort_keys=True) + "\n")
    finished = harness.python_child(
        ["-m", "repro.cli", "batch", manifest, "--ensemble", "strict",
         "--workers", "2"], timeout_s=7200.0)
    summary = json.loads(finished.stdout)
    if finished.returncode != 0 or summary["counts"]["ok"] != len(tasks) \
            or summary["ensemble_disagreements"]:
        print(finished.stderr.decode(errors="replace"), file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as handle:
        for task, record in zip(tasks, summary["tasks"]):
            handle.write(f"{task_key(task)}\t"
                         f"{batch_verdict(task['op'], record['result'])}\n")
    print(f"wrote {len(tasks)} verdicts to {REFERENCE} "
          f"in {finished.wall_s:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(build())
