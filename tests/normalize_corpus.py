"""The normalization fingerprint corpus behind
``tests/data/normalize_corpus.tsv``.

Each case is a ``(D, Σ)`` plus a seeded document conforming to ``D``:

* the paper's running examples (university, DBLP) and the bookstore
  spec, with their bundled documents;
* ``scaled_university_spec(k)`` for k = 1..6, with two populated
  copies;
* 200 specs of the seeded :mod:`repro.runtime.corpus` stream (simple,
  disjunctive and nested families).

Each row of the TSV is one ``(case, engine)`` normalization: the
:func:`repro.normalize.checkpoint.fingerprint` of the output ``(D, Σ)``,
the step descriptions, and the Proposition 8 verdict on the case's
document (whether the document satisfies Σ, then ``lossless``,
``lossy`` or the error a migration raised).  Normalizations that raise
record the error class instead of a fingerprint.

Regenerate (only when a change of output is intended) with::

    PYTHONPATH=src python -m tests.normalize_corpus \
        > tests/data/normalize_corpus.tsv
"""

from __future__ import annotations

import pathlib
import random
import sys
from typing import Callable, Iterator, NamedTuple

from repro.datasets.bookstore import bookstore_document, bookstore_spec
from repro.datasets.dblp import dblp_document, dblp_spec
from repro.datasets.generators import random_document, scaled_university_spec
from repro.datasets.university import university_document, university_spec
from repro.errors import ReproError
from repro.lossless.check import check_normalization_lossless
from repro.normalize import checkpoint
from repro.normalize.algorithm import normalize
from repro.runtime.corpus import iter_tasks
from repro.spec import XMLSpec
from repro.xmltree.model import XMLTree

PATH = pathlib.Path(__file__).resolve().parent / "data" \
    / "normalize_corpus.tsv"
COLUMNS = ("case", "engine", "fingerprint", "steps", "lossless")
#: How many seeded corpus specs the corpus replays.
CORPUS_SIZE = 200
CORPUS_SEED = 14
#: The largest scaled-university copy count the chase still runs on.
CHASE_MAX_K = 4


class Case(NamedTuple):
    name: str
    spec: XMLSpec
    document: Callable[[], XMLTree]
    engines: tuple[str, ...]


class Row(NamedTuple):
    case: str
    engine: str
    fingerprint: str
    steps: str
    lossless: str


def _scaled_document(k: int) -> XMLTree:
    """Copies 0 and ``k - 1`` populated, names keyed by ``sno`` so the
    document satisfies Σ (the tuple set is a product over populated
    copies, so two keep it small)."""
    rng = random.Random(f"normalize-corpus:scaled:{k}")
    tree = XMLTree()
    root = tree.add_node("uni")
    for i in range(k):
        courses = tree.add_node(f"courses{i}", parent=root)
        if i not in (0, k - 1):
            continue
        names = {f"s{n}": rng.choice(("Deere", "Smith")) for n in range(4)}
        for c in range(2):
            course = tree.add_node(f"course{i}", parent=courses,
                                   attrs={"@cno": f"c{c}"})
            tree.add_node(f"title{i}", parent=course, text=f"T{c}")
            taken = tree.add_node(f"taken_by{i}", parent=course)
            for sno in rng.sample(sorted(names), 2):
                student = tree.add_node(f"student{i}", parent=taken,
                                        attrs={"@sno": sno})
                tree.add_node(f"name{i}", parent=student, text=names[sno])
                tree.add_node(f"grade{i}", parent=student,
                              text=rng.choice("AB"))
    return tree.freeze()


def _disjunctive_document(rng: random.Random) -> XMLTree:
    """A document for the corpus's ``db ((a | b)*)`` family."""
    tree = XMLTree()
    root = tree.add_node("db")
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            tree.add_node("a", parent=root, attrs={"@x": rng.choice("01")})
        else:
            tree.add_node("b", parent=root, attrs={"@y": rng.choice("01")})
    return tree.freeze()


def _corpus_document(spec: XMLSpec, seed: str) -> XMLTree:
    """The first of a few seeded documents that satisfies Σ, else the
    last one tried."""
    rng = random.Random(seed)
    disjunctive = "b" in spec.dtd.productions
    for _ in range(20):
        tree = (_disjunctive_document(rng) if disjunctive
                else random_document(rng, spec.dtd, max_repeat=2,
                                     domain=("0", "1")))
        if spec.document_satisfies(tree):
            break
    return tree


def cases() -> Iterator[Case]:
    """Every case of the corpus, in row order."""
    yield Case("university", university_spec(), university_document,
               ("auto", "closure", "chase"))
    yield Case("dblp", dblp_spec(), dblp_document,
               ("auto", "closure", "chase"))
    yield Case("bookstore", bookstore_spec(), bookstore_document,
               ("auto", "closure", "chase"))
    for k in range(1, 7):
        engines = ("auto", "closure") + (("chase",) if k <= CHASE_MAX_K
                                         else ())
        yield Case(f"scaled-{k}", scaled_university_spec(k),
                   lambda k=k: _scaled_document(k), engines)
    for task in iter_tasks(CORPUS_SIZE, seed=CORPUS_SEED):
        spec = XMLSpec.parse(task["dtd_text"], task["fds_text"])
        seed = f"normalize-corpus:{task['id']}"
        yield Case(task["id"], spec,
                   lambda spec=spec, seed=seed: _corpus_document(spec, seed),
                   ("auto", "closure", "chase"))


def lossless_verdict(spec: XMLSpec, result, document: XMLTree) -> str:
    """``sat:`` or ``unsat:`` (does the document satisfy Σ), then the
    Proposition 8 check: ``lossless``, ``lossy``, or the error class a
    migration raised."""
    prefix = "sat" if spec.document_satisfies(document) else "unsat"
    try:
        verdict = check_normalization_lossless(result, spec.dtd, document)
    except ReproError as error:
        return f"{prefix}:{type(error).__name__}"
    return f"{prefix}:{'lossless' if verdict else 'lossy'}"


def run(case: Case, engine: str) -> Row:
    """Normalize one case under one engine and record its row."""
    try:
        result = normalize(case.spec.dtd, case.spec.sigma, engine=engine)
    except ReproError as error:
        return Row(case.name, engine, f"error:{type(error).__name__}",
                   "-", "-")
    steps = " | ".join(result.step_descriptions) or "-"
    return Row(case.name, engine,
               checkpoint.fingerprint(result.dtd, result.sigma), steps,
               lossless_verdict(case.spec, result, case.document()))


def rows() -> Iterator[Row]:
    for case in cases():
        for engine in case.engines:
            yield run(case, engine)


def load() -> dict[tuple[str, str], Row]:
    """The committed rows, keyed by ``(case, engine)``."""
    recorded: dict[tuple[str, str], Row] = {}
    with PATH.open() as handle:
        header = next(handle).rstrip("\n").split("\t")
        assert tuple(header) == COLUMNS, header
        for line in handle:
            row = Row(*line.rstrip("\n").split("\t"))
            recorded[row.case, row.engine] = row
    return recorded


def main() -> int:
    sys.stdout.write("\t".join(COLUMNS) + "\n")
    for row in rows():
        sys.stdout.write("\t".join(row) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
