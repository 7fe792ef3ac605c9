"""Replay of the normalization fingerprint corpus.

Every ``(case, engine)`` row of ``tests/data/normalize_corpus.tsv``
(see :mod:`tests.normalize_corpus`) is normalized again and must
reproduce its recorded output fingerprint, step list and Proposition 8
verdict exactly: an engine change that keeps every verdict keeps every
row.
"""

from __future__ import annotations

import pytest

from tests.normalize_corpus import cases, load, run

RECORDED = load()
CASES = list(cases())


def test_corpus_covers_every_recorded_row():
    replayed = {(case.name, engine) for case in CASES
                for engine in case.engines}
    assert replayed == set(RECORDED)
    assert len(RECORDED) > 600


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_normalization_replays(case):
    for engine in case.engines:
        assert run(case, engine) == RECORDED[case.name, engine]
