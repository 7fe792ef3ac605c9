"""Verdicts carried across normalization states equal fresh decisions.

Each Figure 4 state's implication engine is made from the previous
state's (``ImplicationEngine._successor``) and may answer a cache miss
with the predecessor's verdict.  Every carried verdict must be the
verdict a fresh engine on the new ``(D′, Σ′)`` decides:

* during the normalizations of the fingerprint corpus
  (``tests/normalize_corpus.py``) and of random simple specs;
* for engines made across one random DTD edit (a child's
  multiplicity, an attribute added or dropped) and a changed Σ, where
  the changed-step and relevant-FD conditions decide what may carry;
* against the brute-force oracle on small ``r -> a, b`` schemas.
"""

from __future__ import annotations

import contextlib
import random

from hypothesis import given, settings, strategies as st

from repro.datasets.generators import random_fds, random_simple_dtd
from repro.dtd.model import DTD
from repro.errors import ReproError
from repro.fd.brute import brute_implies
from repro.fd.implication import ImplicationEngine
from repro.fd.model import FD
from repro.normalize.algorithm import normalize
from repro.regex.ast import EPSILON, Concat, concat, optional, plus, star, sym
from repro.runtime import corpus
from repro.spec import XMLSpec

from tests.normalize_corpus import cases

WRAPPERS = (lambda regex: regex, optional, plus, star)


@contextlib.contextmanager
def recorded_carries():
    """Record ``(dtd, sigma, engine kind, query, verdict)`` for every
    verdict an engine carries over while the block runs."""
    records: list[tuple] = []
    original = ImplicationEngine._carry

    def recording(self, single, key):
        verdict = original(self, single, key)
        if verdict is not None:
            records.append((self.dtd, list(self.sigma), self.engine,
                            single, verdict))
        return verdict

    ImplicationEngine._carry = recording
    try:
        yield records
    finally:
        ImplicationEngine._carry = original


def assert_carries_fresh(records: list[tuple]) -> None:
    fresh: dict[tuple, ImplicationEngine] = {}
    for dtd, sigma, kind, query, verdict in records:
        key = (id(dtd), tuple(sigma), kind)
        if key not in fresh:
            fresh[key] = ImplicationEngine(dtd, sigma, engine=kind)
        assert fresh[key].implies(query) == verdict, (
            str(dtd), [str(fd) for fd in sigma], kind, str(query))


def normalize_recording(dtd: DTD, sigma, engine: str) -> list[tuple]:
    with recorded_carries() as records:
        try:
            normalize(dtd, sigma, engine=engine)
        except ReproError:
            pass  # the carries made before the error still count
    return records


def test_corpus_carries_equal_fresh_decisions():
    carried = 0
    for case in cases():
        for engine in ("auto", "closure"):
            records = normalize_recording(case.spec.dtd, case.spec.sigma,
                                          engine)
            assert_carries_fresh(records)
            carried += len(records)
    assert carried > 1000


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1_000_000))
def test_random_normalization_carries_equal_fresh_decisions(seed):
    rng = random.Random(seed)
    dtd = random_simple_dtd(rng, max_depth=3, max_children=3)
    sigma = random_fds(rng, dtd, rng.randint(1, 5))
    assert_carries_fresh(normalize_recording(dtd, sigma, "auto"))


# -- engines across one DTD edit ---------------------------------------------

def rewrap(production, child: str, wrapper):
    """``production`` (a concatenation of wrapped symbols) with
    ``child``'s wrapper replaced."""
    parts = production.parts if isinstance(production, Concat) \
        else (production,)
    return concat(wrapper(sym(child)) if child in part.alphabet() else part
                  for part in parts)


def edited(rng: random.Random, dtd: DTD) -> DTD:
    """``dtd`` with one child's multiplicity changed, or one attribute
    added or dropped."""
    productions = dict(dtd.productions)
    attributes = dict(dtd.attributes)
    parents = sorted(e for e in productions
                     if dtd.child_element_types(e))
    attributed = sorted(e for e in attributes if attributes[e])
    edit = rng.choice(["multiplicity", "add", "drop"])
    if edit == "multiplicity" and parents:
        parent = rng.choice(parents)
        child = rng.choice(sorted(dtd.child_element_types(parent)))
        productions[parent] = rewrap(productions[parent], child,
                                     rng.choice(WRAPPERS))
    elif edit == "drop" and attributed:
        owner = rng.choice(attributed)
        attributes[owner] = attributes[owner] - {
            rng.choice(sorted(attributes[owner]))}
    else:
        owner = rng.choice(sorted(productions))
        attributes[owner] = attributes.get(owner, frozenset()) | {"@new"}
    return DTD(root=dtd.root, productions=productions,
               attributes=attributes)


def valid(dtd: DTD, fds) -> list[FD]:
    return [fd for fd in fds if all(dtd.is_path(p) for p in fd.paths)]


def queries(rng: random.Random, dtd: DTD, sigma, count: int) -> list[FD]:
    paths = sorted(dtd.paths)
    found = [FD(frozenset(rng.sample(paths, min(len(paths),
                                                rng.randint(1, 2)))),
                frozenset({rng.choice(paths)})) for _ in range(count)]
    found.extend(FD(fd.lhs, frozenset({rhs})) for fd in sigma
                 for rhs in paths[:5])
    return found


def assert_successor_agrees(dtd, sigma, new_dtd, new_sigma, asked,
                            engine="auto", brute=False) -> int:
    """Warm an engine on ``(dtd, sigma)`` with ``asked``, make its
    successor on ``(new_dtd, new_sigma)``, and compare the successor's
    answers with a fresh engine's (and the brute-force oracle's);
    returns how many answers were carried."""
    before = ImplicationEngine(dtd, sigma, engine=engine)
    for query in asked:
        before.implies(query)
        before.is_trivial(query)
    after = before._successor(new_dtd, new_sigma)
    fresh = ImplicationEngine(new_dtd, new_sigma, engine=engine)
    with recorded_carries() as records:
        for query in valid(new_dtd, asked):
            expected = fresh.implies(query)
            assert after.implies(query) == expected, (
                str(dtd), str(new_dtd), [str(fd) for fd in new_sigma],
                str(query))
            assert after.is_trivial(query) == fresh.is_trivial(query)
            if brute:
                assert expected == brute_implies(new_dtd, new_sigma, query,
                                                 max_word=4)
    return len(records)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 1_000_000))
def test_successor_across_a_dtd_edit_agrees_with_fresh(seed):
    rng = random.Random(seed)
    dtd = random_simple_dtd(rng, max_depth=3, max_children=3)
    new_dtd = edited(rng, dtd)
    sigma = random_fds(rng, dtd, rng.randint(1, 5))
    new_sigma = valid(new_dtd, sigma)
    if rng.random() < 0.5:
        new_sigma = new_sigma + random_fds(rng, new_dtd, 1)
    asked = queries(rng, dtd, sigma, 6)
    for engine in ("auto", "closure"):
        assert_successor_agrees(dtd, sigma, new_dtd, new_sigma, asked,
                                engine)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1_000_000))
def test_successor_verdicts_match_brute_force(seed):
    """``r -> a, b`` with random multiplicities, one of them changed:
    the closure is complete here and four children per node bound every
    countermodel, so successor answers must be the brute-force ones."""
    rng = random.Random(seed)

    def schema(a, b) -> DTD:
        return DTD(root="r",
                   productions={"r": concat([a(sym("a")), b(sym("b"))]),
                                "a": EPSILON, "b": EPSILON},
                   attributes={"a": frozenset({"@x"}),
                               "b": frozenset({"@y"})})

    a, b = rng.choice(WRAPPERS), rng.choice(WRAPPERS)
    dtd = schema(a, b)
    new_dtd = schema(a, rng.choice(WRAPPERS))
    sigma = queries(rng, dtd, [], rng.randint(1, 2))
    new_sigma = sigma + queries(rng, dtd, [], 1) \
        if rng.random() < 0.5 else sigma
    assert_successor_agrees(dtd, sigma, new_dtd, new_sigma,
                            queries(rng, dtd, sigma, 4), brute=True)


def test_unchanged_state_carries_every_verdict():
    """Across an edit that touches nothing the queries mention, every
    verdict carries (the conditions are not vacuously false)."""
    rng = random.Random(7)
    task = next(t for t in corpus.iter_tasks(50, seed=3)
                if "student" in t["dtd_text"])
    spec = XMLSpec.parse(task["dtd_text"], task["fds_text"])
    dtd = spec.dtd
    new_dtd = DTD(root=dtd.root, productions=dict(dtd.productions),
                  attributes={**dtd.attributes,
                              "taken_by": frozenset({"@new"})})
    asked = queries(rng, dtd, spec.sigma, 6)
    carried = assert_successor_agrees(dtd, spec.sigma, new_dtd,
                                      spec.sigma, asked)
    assert carried >= len(valid(new_dtd, asked))
