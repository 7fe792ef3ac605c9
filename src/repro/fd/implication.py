"""The FD implication facade: ``(D, Σ) |- φ`` (Section 7).

Engine selection (``engine="auto"``):

* the **closure** engine runs first — it is sound for every DTD and
  complete for simple DTDs (Theorem 3's quadratic regime), so a
  ``True`` answer is always final and a ``False`` answer is final when
  the DTD is simple;
* otherwise the **chase** engine decides exactly, enumerating the
  DTD's disjunction choices (polynomial when ``N_D`` is logarithmic —
  Theorem 4 — and exponential in general, matching the
  coNP-completeness of Theorem 5);
* ``engine="closure" | "chase" | "brute"`` forces a specific engine;
* ``engine="ensemble"`` runs the differential oracle
  (:mod:`repro.runtime.ensemble`): every applicable engine decides
  every query, verdicts are cross-checked, and contradictions are
  escalated instead of silently resolved.

:class:`ImplicationEngine` caches query results, which the XNF test and
the normalization algorithm exploit heavily.  The cache is keyed by the
canonical form of each single-RHS query (see :meth:`ImplicationEngine.
cache_key`) and instrumented: :meth:`ImplicationEngine.cache_info`
mirrors :func:`functools.lru_cache`, and when :mod:`repro.obs` is
enabled the engine emits ``implication.*`` counters (cache hits and
misses, engine chosen per decided query, closure→chase fallbacks).

**Successor engines** (private; the Figure 4 loop's
:mod:`repro.normalize.algorithm` uses them): each normalization state
gets one engine, made from the previous state's by
:meth:`ImplicationEngine._successor`.  A cache miss then first looks up
the predecessor's cache and reuses its verdict when the closure's run
for the query provably did not change — no step on the query's paths
or on those of its relevant Σ component changed, the relevant FD list
is the same, and the paths keep their relative ID order — and only for
the ``closure`` engine, or ``auto`` when both DTDs are simple (DESIGN.md
§3.3).  Carried answers count as cache hits and, in :mod:`repro.obs`,
as ``implication.cache.carried``.

**Resource governance** (see ``docs/ROBUSTNESS.md``): under an active
:mod:`repro.guard` budget the engines raise
:class:`~repro.errors.ResourceExhausted` instead of running unbounded.
:meth:`ImplicationEngine.implies` lets that propagate (a boolean API
cannot degrade); :meth:`ImplicationEngine.decide` walks the fallback
chain — the cache, then the always-sound closure, then (non-simple
DTDs) the budget-bounded chase — and converts exhaustion into a
three-valued :class:`ImplicationVerdict`: :data:`YES` / :data:`NO` /
:data:`UNKNOWN` with the tripped limit named.  The cache is keyed on
*completeness*: only fully decided answers are stored, so an
``UNKNOWN`` produced under a tight budget is never replayed as
authoritative by a later (or warmer) query.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Literal, NamedTuple

from repro.errors import ResourceExhausted, UnsupportedFeatureError
from repro.dtd.model import DTD
from repro.fd.brute import brute_implies
from repro.fd.chase import chase_implies
from repro.fd.closure import CompiledSigma, closure_implies, same_problem
from repro.fd.model import FD
from repro.obs import metrics as _obs

EngineName = Literal["auto", "closure", "chase", "brute", "ensemble"]

#: The three verdict values of :meth:`ImplicationEngine.decide`.
YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"


class ImplicationVerdict(NamedTuple):
    """A three-valued implication answer.

    ``value`` is :data:`YES`, :data:`NO`, or :data:`UNKNOWN`; both
    definite values are **sound** (backed by a completed engine run),
    while ``UNKNOWN`` is only ever produced when a resource limit
    actually tripped — ``limit`` then names it (``"deadline"``,
    ``"steps"``, ``"branches"``, or ``"nodes"``) and ``reason`` is a
    human-readable account.
    """

    value: str
    reason: str
    limit: str | None = None

    @property
    def decided(self) -> bool:
        """Whether the verdict is definite (``YES`` or ``NO``)."""
        return self.value != UNKNOWN

#: The cache key of one single-RHS query: ``(lhs, rhs)`` with the LHS
#: as a frozenset of paths and the RHS a single path.
CacheKey = tuple[frozenset, object]


class CacheInfo(NamedTuple):
    """Cache statistics, mirroring ``functools.lru_cache().cache_info()``.

    ``maxsize`` is always ``None``: the cache is unbounded (one entry
    per distinct single-RHS query against a fixed ``(D, Σ)``).
    """

    hits: int
    misses: int
    maxsize: None
    currsize: int


#: Every live engine, tracked weakly so :meth:`ImplicationEngine.
#: clear_all_caches` can reach instances held by long-lived owners
#: (``XMLSpec`` caches its oracle, benchmark closures capture theirs).
_live_engines: "weakref.WeakSet[ImplicationEngine]" = weakref.WeakSet()


class ImplicationEngine:
    """A cached implication oracle for a fixed ``(D, Σ)``."""

    def __init__(self, dtd: DTD, sigma: Iterable[FD], *,
                 engine: EngineName = "auto") -> None:
        self.dtd = dtd
        self.sigma = [fd.validate(dtd) for fd in sigma]
        self.engine: EngineName = engine
        self._simple = dtd.is_simple
        self._cache: dict[CacheKey, bool] = {}
        self._compiled: CompiledSigma | None = None
        self._trivial: ImplicationEngine | None = None
        self._hits = 0
        self._misses = 0
        #: The previous normalization state's engine, whose verdicts
        #: may carry over, and the DTD steps that changed since.
        self._predecessor: ImplicationEngine | None = None
        self._changed: frozenset[tuple[str, str]] | None = None
        #: The next state's ``(D′, ∅)`` engine, once made.
        self._next_trivial: ImplicationEngine | None = None
        if engine == "ensemble":
            # Imported here, once per engine rather than per query:
            # repro.runtime.ensemble imports the individual engines,
            # not this facade, so there is no cycle — but the runtime
            # package stays unloaded for plain implication users.
            from repro.runtime.ensemble import differential_implies
            self._differential = differential_implies
        _live_engines.add(self)

    @staticmethod
    def cache_key(fd: FD) -> CacheKey:
        """The canonical cache key of a single-RHS query.

        A multi-RHS FD is decided RHS-by-RHS (the standard wlog
        reduction, :meth:`FD.expand`), so the canonical query form is
        the pair ``(lhs, rhs)``: the LHS is already an order-free
        ``frozenset`` of paths and the RHS a single path.  Two
        syntactically different spellings of the same query (path
        order, ``{}`` braces, duplicate paths) therefore hash to the
        same key, which is what makes the hit/miss metrics meaningful.
        """
        return (fd.lhs, fd.single_rhs)

    def implies(self, fd: FD) -> bool:
        """``(D, Σ) |- fd``.

        Under an active :mod:`repro.guard` budget this may raise
        :class:`~repro.errors.ResourceExhausted`; use :meth:`decide`
        for the degrade-gracefully three-valued form.
        """
        if len(fd.rhs) == 1:
            return self._lookup(fd)
        result = True
        for single in fd.expand():
            result = self._lookup(single) and result
        return result

    def decide(self, fd: FD) -> ImplicationVerdict:
        """``(D, Σ) |- fd`` as a three-valued verdict.

        Walks the fallback chain per single-RHS query — cached answers,
        then the exact engines in :meth:`_decide`'s order (closure
        first: sound everywhere, complete for simple DTDs; then the
        budget-bounded chase for general DTDs) — and absorbs
        :class:`~repro.errors.ResourceExhausted` into an ``UNKNOWN``
        verdict naming the tripped limit.  A ``NO`` on any conjunct is
        final regardless of budget trips elsewhere (one unimplied RHS
        refutes the conjunction); otherwise any trip degrades the
        overall verdict to ``UNKNOWN``.  Budget-aborted queries are
        **not** cached, so a later call with more budget re-decides
        them from scratch.
        """
        unknown: ImplicationVerdict | None = None
        for single in fd.expand():
            try:
                value = self._lookup(single)
            except ResourceExhausted as error:
                if _obs.enabled:
                    _obs.inc("implication.verdict.unknown")
                if unknown is None:
                    unknown = ImplicationVerdict(
                        UNKNOWN, limit=error.limit,
                        reason=(f"undecided: {error} while deciding "
                                f"{single} (engine "
                                f"{error.partial.get('engine', '?')})"))
                continue
            if not value:
                if _obs.enabled:
                    _obs.inc("implication.verdict.no")
                return ImplicationVerdict(
                    NO, reason=f"{single} is not implied")
        if unknown is not None:
            return unknown
        if _obs.enabled:
            _obs.inc("implication.verdict.yes")
        return ImplicationVerdict(YES, reason="implied")

    def _lookup(self, single: FD) -> bool:
        """Decide one single-RHS query through the cache.

        Only *complete* answers are ever stored: :meth:`_decide`
        signals an aborted run by raising (``ResourceExhausted``
        propagates before the assignment below), so the cache never
        holds a verdict produced under an exhausted budget.
        """
        # Inline cache_key: expand() guarantees a single-RHS FD.
        key = (single.lhs, next(iter(single.rhs)))
        cached = self._cache.get(key)
        if cached is None and self._predecessor is not None:
            cached = self._carry(single, key)
            if cached is not None:
                self._cache[key] = cached
                if _obs.enabled:
                    _obs.inc("implication.cache.carried")
        if cached is None:
            self._misses += 1
            if _obs.enabled:
                _obs.inc("implication.cache.miss")
            cached = self._decide(single)
            self._cache[key] = cached
        else:
            self._hits += 1
            if _obs.enabled:
                _obs.inc("implication.cache.hit")
        return cached

    def _carry(self, single: FD, key: CacheKey) -> bool | None:
        """The predecessor's verdict on ``single`` if the closure would
        decide it here by the same run, else ``None``."""
        predecessor = self._predecessor
        assert predecessor is not None
        verdict = predecessor._cache.get(key)
        if verdict is None or not same_problem(
                predecessor._closure_sigma(), self._closure_sigma(),
                single, self._changed):
            return None
        return verdict

    def _successor(self, dtd: DTD,
                   sigma: Iterable[FD]) -> "ImplicationEngine":
        """The engine of the next normalization state ``(dtd, sigma)``.

        It answers cache misses with this engine's verdicts where they
        provably carry over (see :meth:`_link`), and takes over the
        state's ``(D′, ∅)`` engine if the transformation already made
        it (:meth:`_trivial_successor`)."""
        successor = ImplicationEngine(dtd, sigma, engine=self.engine)
        changed = None
        if successor.sigma:
            trivial = successor._trivial = self._trivial_successor(dtd)
            changed = trivial._changed  # the same pair of DTDs
        successor._link(self, changed)
        self._next_trivial = None
        return successor

    def _trivial_successor(self, dtd: DTD) -> "ImplicationEngine":
        """The ``(dtd, ∅)`` engine of the next normalization state,
        made once per state and linked to this state's ``(D, ∅)``
        engine: the transformation filters the new Σ through it, and
        :meth:`_successor` hands it to the next state's engine."""
        successor = self._next_trivial
        if successor is None or successor.dtd is not dtd:
            successor = ImplicationEngine(dtd, [], engine=self.engine)
            current = self._trivial if self.sigma else self
            if current is not None:
                successor._link(current)
            self._next_trivial = successor
        return successor

    def _link(self, predecessor: "ImplicationEngine",
              changed: frozenset[tuple[str, str]] | None = None) -> None:
        """Make ``predecessor`` (the previous state's engine of the same
        kind) the source of carried verdicts, dropping its own link so
        engines never chain.  Only the closure's verdicts carry: those
        of the ``closure`` engine, and of ``auto`` while both DTDs are
        simple (``auto`` then runs the closure alone).  ``changed``,
        if known, is ``predecessor.dtd.changed_steps(self.dtd)``."""
        predecessor._predecessor = None
        if predecessor.engine != self.engine \
                or predecessor.dtd.root != self.dtd.root:
            return
        if self.engine == "closure" or (
                self.engine == "auto" and self._simple
                and predecessor._simple):
            self._predecessor = predecessor
            self._changed = changed if changed is not None \
                else predecessor.dtd.changed_steps(self.dtd)

    def cache_info(self) -> CacheInfo:
        """Hit/miss/size statistics for the query cache."""
        return CacheInfo(self._hits, self._misses, None,
                         len(self._cache))

    def cache_clear(self) -> None:
        """Drop every cached answer (the ``(D, ∅)`` engine of
        :meth:`is_trivial` included) and zero the statistics; the
        engine stops carrying verdicts over from a predecessor."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0
        self._trivial = None
        self._predecessor = None
        self._next_trivial = None

    @classmethod
    def clear_all_caches(cls) -> int:
        """:meth:`cache_clear` on every live engine; returns how many
        engines were cleared.

        This is the benchmark runner's isolation hook
        (:func:`repro.bench.runner.isolate`): a workload that re-uses a
        spec (whose oracle is cached on the instance) must start every
        run cold, or the first run's counters would differ from every
        later one.
        """
        engines = list(_live_engines)
        for engine in engines:
            engine.cache_clear()
        return len(engines)

    def query_count(self) -> int:
        """Total single-RHS queries answered (cached or decided)."""
        return self._hits + self._misses

    def is_trivial(self, fd: FD) -> bool:
        """``(D, ∅) |- fd``: the FD holds in every conforming tree.

        Answered by one lazily built, cached ``(D, ∅)`` engine, or by
        this engine itself when its Σ is empty."""
        if not self.sigma:
            return self.implies(fd)
        if self._trivial is None:
            self._trivial = ImplicationEngine(self.dtd, [],
                                              engine=self.engine)
        return self._trivial.implies(fd)

    def _closure_sigma(self) -> CompiledSigma:
        """Σ compiled for the closure engine, once per engine."""
        if self._compiled is None:
            self._compiled = CompiledSigma(self.dtd, self.sigma)
        return self._compiled

    def _decide(self, fd: FD) -> bool:
        if self.engine == "closure":
            if _obs.enabled:
                _obs.inc("implication.engine.closure")
            return closure_implies(self.dtd, self._closure_sigma(), fd)
        if self.engine == "chase":
            if _obs.enabled:
                _obs.inc("implication.engine.chase")
            return chase_implies(self.dtd, self.sigma, fd)
        if self.engine == "brute":
            if _obs.enabled:
                _obs.inc("implication.engine.brute")
            return brute_implies(self.dtd, self.sigma, fd)
        if self.engine == "ensemble":
            if _obs.enabled:
                _obs.inc("implication.engine.ensemble")
            return self._differential(self.dtd, self.sigma, fd,
                                      simple=self._simple)
        # auto: closure first (sound everywhere, complete for simple
        # DTDs), then the chase for the general case.
        if _obs.enabled:
            _obs.inc("implication.engine.closure")
        if closure_implies(self.dtd, self._closure_sigma(), fd):
            return True
        if self._simple:
            return False
        if self.dtd.is_recursive:
            raise UnsupportedFeatureError(
                "exact implication over recursive non-simple DTDs is not "
                "supported; force engine='closure' for a sound "
                "approximation")
        if _obs.enabled:
            _obs.inc("implication.fallback.closure_to_chase")
            _obs.inc("implication.engine.chase")
        return chase_implies(self.dtd, self.sigma, fd)


def implies(dtd: DTD, sigma: Iterable[FD], fd: FD, *,
            engine: EngineName = "auto") -> bool:
    """One-shot ``(D, Σ) |- fd``."""
    return ImplicationEngine(dtd, sigma, engine=engine).implies(fd)


def decide(dtd: DTD, sigma: Iterable[FD], fd: FD, *,
           engine: EngineName = "auto") -> ImplicationVerdict:
    """One-shot three-valued ``(D, Σ) |- fd`` (budget-aware)."""
    return ImplicationEngine(dtd, sigma, engine=engine).decide(fd)


def is_trivial(dtd: DTD, fd: FD, *, engine: EngineName = "auto") -> bool:
    """Whether ``fd`` is trivial: implied by the DTD alone."""
    return implies(dtd, [], fd, engine=engine)
