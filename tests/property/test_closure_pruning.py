"""Relevance pruning never changes a closure verdict.

``closure_implies`` solves each query over the FDs of Σ that are
prefix-connected to it (:meth:`CompiledSigma.relevant`);
``pair_closure`` solves over all of Σ.  Pruning is sound only if the
two always agree, so every verdict is decided both ways — on random
simple DTDs (Hypothesis), on the seeded ``runtime.corpus`` specs, and
on a multi-copy schema where pruning drops most of Σ — and small
simple instances are cross-checked against the brute-force oracle.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.datasets.generators import (random_fds, random_simple_dtd,
                                       scaled_university_spec)
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.fd.brute import brute_implies
from repro.fd.closure import CompiledSigma, closure_implies, pair_closure
from repro.fd.model import FD, parse_fds
from repro.regex.ast import EPSILON, concat, optional, plus, star, sym
from repro.runtime import corpus


def unpruned(dtd: DTD, sigma: list[FD], fd: FD) -> bool:
    """The closure verdict over the whole of Σ."""
    return all(rhs in pair_closure(dtd, sigma, fd.lhs, extra={rhs})[0]
               for rhs in fd.rhs)


def assert_pruning_agrees(dtd: DTD, sigma: list[FD], queries) -> None:
    for query in queries:
        assert closure_implies(dtd, sigma, query) == \
            unpruned(dtd, sigma, query), (
                str(dtd), [str(fd) for fd in sigma], str(query))


def random_queries(rng: random.Random, dtd: DTD, count: int) -> list[FD]:
    paths = sorted(dtd.paths)
    return [FD(frozenset(rng.sample(paths, min(len(paths),
                                               rng.randint(1, 2)))),
               frozenset({rng.choice(paths)})) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1_000_000))
def test_pruning_agrees_on_random_simple_dtds(seed):
    rng = random.Random(seed)
    dtd = random_simple_dtd(rng, max_depth=3, max_children=3)
    sigma = random_fds(rng, dtd, rng.randint(1, 6))
    queries = random_queries(rng, dtd, 4) + [
        FD(fd.lhs, frozenset({rhs})) for fd in sigma
        for rhs in sorted(dtd.paths)[:6]]
    assert_pruning_agrees(dtd, sigma, queries)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1_000_000))
def test_pruned_verdicts_match_brute_force(seed):
    """On ``r -> a, b`` with random multiplicities the closure is
    complete and four children per node bound every countermodel, so
    the pruned verdict must be the brute-force one."""
    rng = random.Random(seed)
    wrappers = [lambda regex: regex, optional, plus, star]
    dtd = DTD(root="r",
              productions={"r": concat([rng.choice(wrappers)(sym("a")),
                                        rng.choice(wrappers)(sym("b"))]),
                           "a": EPSILON, "b": EPSILON},
              attributes={"a": frozenset({"@x"}), "b": frozenset({"@y"})})
    sigma = random_queries(rng, dtd, rng.randint(1, 2))
    for query in random_queries(rng, dtd, 3):
        assert closure_implies(dtd, sigma, query) == brute_implies(
            dtd, sigma, query, max_word=4), (
                str(dtd), [str(fd) for fd in sigma], str(query))


def test_pruning_agrees_on_the_runtime_corpus():
    for task in corpus.generate_tasks(60, seed=11):
        dtd = parse_dtd(task["dtd_text"])
        sigma = parse_fds(task["fds_text"])
        pool = list(sigma)
        if "fd" in task:
            pool.append(FD.parse(task["fd"]))
        paths = sorted({path for fd in pool for path in fd.paths})
        queries = pool + [FD(frozenset({lhs}), frozenset({rhs}))
                          for lhs in paths for rhs in paths if lhs != rhs]
        assert_pruning_agrees(dtd, sigma, queries)


def test_pruning_drops_unconnected_copies():
    """Three side-by-side copies of the university schema: a query on
    one copy keeps only that copy's FDs, and its verdicts still match
    the unpruned solve."""
    spec = scaled_university_spec(3)
    compiled = CompiledSigma(spec.dtd, spec.sigma)
    table = spec.dtd.path_table
    student = "uni.courses1.course1.taken_by1.student1"
    query = FD.parse(f"{student}.@sno -> {student}.name1.S")
    chain = table.chains(table.id(p) for p in query.paths)
    kept = [compiled.fds[i] for i in compiled.relevant(chain)]
    assert kept and len(kept) == len(spec.sigma) // 3
    assert all(str(path).startswith("uni.courses1")
               for fd in kept for path in fd.paths)
    paths = sorted({path for fd in spec.sigma for path in fd.paths})
    queries = [FD(frozenset({lhs}), frozenset({rhs}))
               for lhs in paths for rhs in paths
               if lhs != rhs and lhs.steps[1] == rhs.steps[1]]
    assert_pruning_agrees(spec.dtd, spec.sigma, queries)


def test_relevance_is_transitive():
    """Σ chains ``@x`` across four sibling subtrees: the middle FD
    shares no path with the query, but it is connected to the query
    through its neighbours, so pruning keeps it."""
    dtd = DTD(root="r",
              productions={"r": concat([plus(sym(n)) for n in "abcd"]),
                           **{n: EPSILON for n in "abcd"}},
              attributes={n: frozenset({"@x"}) for n in "abcd"})
    sigma = [FD.parse(f"r.{a}.@x -> r.{b}.@x")
             for a, b in ("ab", "bc", "cd")]
    query = FD.parse("r.a.@x -> r.d.@x")
    table = dtd.path_table
    chain = table.chains(table.id(p) for p in query.paths)
    assert CompiledSigma(dtd, sigma).relevant(chain) == [0, 1, 2]
    assert_pruning_agrees(dtd, sigma, [query])
