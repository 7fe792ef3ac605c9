"""The closure-based FD implication engine (Theorem 3 regime).

Decides ``(D, Σ) |- S -> q`` by saturating two predicates about a
hypothetical pair of maximal tree tuples ``t1, t2`` of the same tree
that agree, non-null, on ``S``:

* ``NN(p)`` — ``t1.p`` and ``t2.p`` are provably non-null,
* ``EQ(p)`` — ``t1.p = t2.p`` is provable (null-tolerant equality).

Structural rules come from the tree-tuple semantics (Definitions 4-6):
the root is shared; non-null paths force non-null ancestors; a node
determines its attributes, its text, and its children of multiplicity
``1``/``?``; tuple maximality forces children of multiplicity
``1``/``+`` of non-null paths to be non-null.

Σ rules use the *hybrid-tuple* argument: for ``S1 -> S2 ∈ Σ``, if each
path of ``S1`` is non-null and is either provably equal or lives in a
subtree hanging off a provably-shared node, then the hybrid maximal
tuple that copies ``t1`` on those subtrees and ``t2`` elsewhere exists
in the same tree; applying the FD to ``(t1, hybrid)`` and using that
the hybrid equals ``t2`` outside the copied subtrees yields
``t1.q' = t2.q'`` for every ``q' ∈ S2`` outside them.  (With
``S1 ⊆ EQ ∩ NN`` no subtree is copied and this degenerates to the
classical transitivity rule.)

When the monotone rules stall, a *null-correlation case split* applies
to a path ``w`` whose nullness is provably correlated between the two
tuples — either ``w ∈ EQ`` (equal values are null together) or ``w`` is
an element path under a shared node (by tuple maximality the shared
parent either has a ``w``-labelled child for both tuples or for
neither).  The rule closes both branches — assuming ``NN(w)``, and
assuming the whole region that must be null with ``w`` is null (hence
trivially equal) — and keeps the facts derivable in *both*.  This is
what validates e.g. ``@A -> L`` against ``{A -> B} ∪ PNF-keys`` in the
nested codings of Proposition 5, where the group key fires only in the
non-null branch.  Splits nest two levels and are pruned to the premise
paths of not-yet-fired, query-relevant FDs, so the common case never
pays for them.

**Representation.**  Paths are interned in the DTD's
:class:`~repro.dtd.paths.PathTable` (one per DTD, grown on demand, so
recursive DTDs stay finite); a parent's ID is smaller than its
children's, and IDs are handed out in request order (Σ in list order,
each side's paths sorted), never in hash order.  :class:`CompiledSigma`
stores each FD's LHS mask, RHS IDs and prefix-chain mask, plus the
connected components used for relevance pruning, once per
:class:`~repro.fd.implication.ImplicationEngine`.  ``EQ``, ``NN`` and
the universe (the prefix-closure of the mentioned paths) are int
bitmasks; rules visit paths in ID order — downward rules ascending,
upward rules descending, so one pass propagates along a whole chain —
and the engine's work is therefore independent of ``PYTHONHASHSEED``.
:class:`~repro.dtd.paths.Path` objects appear only at the API
boundary and in derivation events.

The closure is **sound for every DTD** (including recursive ones — the
rules only ever walk the finite prefix-closure of the mentioned paths)
and **complete for simple DTDs** as far as extensive differential
fuzzing against the exact chase engine and a brute-force model
enumerator can establish; this is the polynomial regime of Theorem 3.
For non-simple DTDs a ``False`` answer must be confirmed by the chase
engine (disjunction can force equalities the multiplicity abstraction
cannot see).
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from repro.errors import ResourceExhausted
from repro.dtd.model import DTD
from repro.dtd.paths import Path, bits
from repro.faults import plan as _faults
from repro.fd.model import FD
from repro.guard import budget as _guard
from repro.obs import metrics as _obs

#: Nesting depth of null-correlation case splits.
SPLIT_DEPTH = 2

#: The root path's bit: the root is the first path every table interns.
_ROOT = 1

_SITE_ITERATION = _faults.register_site(
    "fd.closure.iteration", "fd",
    "each pass of the closure's monotone fixpoint loop")


class CompiledSigma:
    """Σ compiled against a DTD's path table.

    Per FD (in Σ order): ``lhs_mask``, ``lhs_chain`` (the
    prefix-closure of the LHS), ``rhs`` (sorted IDs) and ``chain`` (the
    prefix-closure of all its paths).
    """

    def __init__(self, dtd: DTD, sigma: Iterable[FD]) -> None:
        self.dtd = dtd
        self.table = table = dtd.path_table
        self.fds = list(sigma)
        self.lhs_mask: list[int] = []
        self.lhs_chain: list[int] = []
        self.rhs: list[tuple[int, ...]] = []
        self.chain: list[int] = []
        for fd in self.fds:
            lhs = tuple(table.id(p) for p in sorted(fd.lhs))
            rhs = tuple(table.id(p) for p in sorted(fd.rhs))
            self.lhs_mask.append(_mask(lhs))
            self.lhs_chain.append(table.chains(lhs))
            self.rhs.append(rhs)
            self.chain.append(self.lhs_chain[-1] | table.chains(rhs))
        self._components = self._connect()

    def _connect(self) -> list[tuple[int, list[int]]]:
        """Connected components of Σ: two FDs connect when their
        prefix chains share a path below the root (the root prefixes
        everything, so it connects nothing)."""
        components: list[tuple[int, list[int]]] = []
        for index, chain in enumerate(self.chain):
            chain &= ~_ROOT
            if not chain:
                continue
            members = [index]
            apart = []
            for mask, indices in components:
                if mask & chain:
                    chain |= mask
                    members.extend(indices)
                else:
                    apart.append((mask, indices))
            apart.append((chain, members))
            components = apart
        return components

    def relevant(self, chain: int) -> list[int]:
        """Indices (in Σ order) of the FDs transitively connected to a
        query whose prefix chain is ``chain``.

        Dropping the rest is sound (fewer derivations) and loses
        nothing: every rule propagates along prefix chains of the paths
        it touches, and a null region never climbs to the root (the
        root's forced children are non-null).  A query mentioning only
        the root keeps all of Σ.
        """
        chain &= ~_ROOT
        if not chain:
            return list(range(len(self.fds)))
        kept: list[int] = []
        for mask, indices in self._components:
            if mask & chain:
                kept.extend(indices)
        kept.sort()
        return kept


class Derivation(NamedTuple):
    """One traced closure run (see :func:`derivation`)."""

    derived: bool
    #: ``(kind, path, reason)`` per top-level fact, in derivation order.
    events: list[tuple[str, Path, str]]
    #: How many Σ FDs survived relevance pruning.
    relevant: int


def closure_implies(dtd: DTD, sigma: Iterable[FD] | CompiledSigma,
                    fd: FD) -> bool:
    """Whether the closure derives ``fd`` from ``(D, Σ)``.  ``sigma``
    may be a :class:`CompiledSigma` of ``dtd`` (reused, not
    recompiled)."""
    with _obs.timer("closure.implies"):
        try:
            compiled = _compile(dtd, sigma)
            for single in fd.expand():
                solver, target = _query_solver(compiled, single)
                eq, nn = solver.solve(0, 0, SPLIT_DEPTH)
                if _obs.enabled:
                    _obs.observe("closure.derived.eq", eq.bit_count())
                    _obs.observe("closure.derived.nn", nn.bit_count())
                if not eq >> target & 1:
                    return False
        except ResourceExhausted as error:
            error.partial.setdefault("engine", "closure")
            error.partial.setdefault("query", str(fd))
            raise
    return True


def pair_closure(dtd: DTD, sigma: Iterable[FD], lhs: Iterable[Path],
                 extra: Iterable[Path] = (),
                 ) -> tuple[frozenset[Path], frozenset[Path]]:
    """Saturate ``(EQ, NN)`` for a pair agreeing non-null on ``lhs``;
    ``extra`` paths are added to the universe so membership can be read
    off the result.  (No Σ relevance pruning here — callers that want
    the full fact set, like the normalization transforms, use this.)"""
    compiled = _compile(dtd, sigma)
    table = compiled.table
    solver = _Solver(compiled, range(len(compiled.fds)),
                     table.mask(sorted(lhs)), table.mask(sorted(extra)))
    eq, nn = solver.solve(0, 0, SPLIT_DEPTH)
    return table.to_paths(eq), table.to_paths(nn)


def derivation(dtd: DTD, sigma: Iterable[FD], fd: FD) -> Derivation:
    """:func:`closure_implies` for a single-RHS FD, recording the
    derivation events that ``repro.fd.explain`` renders."""
    compiled = _compile(dtd, sigma)
    solver, target = _query_solver(compiled, fd)
    solver.events = []
    eq, _nn = solver.solve(0, 0, SPLIT_DEPTH)
    return Derivation(bool(eq >> target & 1), solver.events,
                      len(solver.fds))


def same_problem(old: CompiledSigma, new: CompiledSigma, single: FD,
                 changed: Collection[tuple[str, str]]) -> bool:
    """Whether the closure decides the single-RHS query ``single`` over
    ``new`` by the very run it made over ``old``, so that ``old``'s
    verdict carries over (see DESIGN.md §3.3).

    It does when the relevant FD lists are equal (same FDs, same
    order), when no step on the paths of the old run's universe (the
    query's and its relevant FDs' prefix chains) is in ``changed``
    (``(parent type, step)`` pairs whose existence or class differs
    between the two DTDs), and when the new table holds those paths in
    the same relative ID order.  The query is interned in ``new``'s
    table exactly as a fresh decision would intern it.
    """
    lhs, target, old_relevant = _query(old, single)
    new_relevant = _query(new, single)[2]
    if len(old_relevant) != len(new_relevant):
        return False
    for i, j in zip(old_relevant, new_relevant):
        if old.fds[i] != new.fds[j]:
            return False
    universe = old.table.chains(lhs + (target,))
    for i in old_relevant:
        universe |= old.chain[i]
    return old.table.embeds(universe, new.table, changed)


def _compile(dtd: DTD,
             sigma: Iterable[FD] | CompiledSigma) -> CompiledSigma:
    if isinstance(sigma, CompiledSigma):
        return sigma
    return CompiledSigma(dtd, sigma)


def _query(compiled: CompiledSigma,
           single: FD) -> tuple[tuple[int, ...], int, list[int]]:
    """The IDs of a single-RHS query's LHS paths and RHS path (interned
    in that order) and the indices of its relevant FDs."""
    table = compiled.table
    lhs = tuple(table.id(p) for p in sorted(single.lhs))
    target = table.id(single.single_rhs)
    return lhs, target, compiled.relevant(table.chains(lhs + (target,)))


def _query_solver(compiled: CompiledSigma,
                  single: FD) -> tuple["_Solver", int]:
    """The solver for one single-RHS query over its relevant Σ, and
    the ID of the query's RHS."""
    lhs, target, relevant = _query(compiled, single)
    return _Solver(compiled, relevant, _mask(lhs), 1 << target), target


def _mask(ids: Iterable[int]) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


class _Solver:
    """Fixpoint engine for one (D, Σ, lhs, extra) problem over the
    ``fds`` of a compiled Σ, memoizing the case-split branch
    closures."""

    def __init__(self, compiled: CompiledSigma, fds: Sequence[int],
                 lhs: int, extra: int) -> None:
        table = compiled.table
        self.table = table
        self.fds = [(compiled.lhs_mask[i], compiled.lhs_chain[i],
                     compiled.rhs[i], compiled.fds[i]) for i in fds]
        universe = table.chains(bits(lhs | extra))
        for i in fds:
            universe |= compiled.chain[i]
        parent, elements = table.parent, table.elements
        ids = list(bits(universe))
        self._ids = ids
        self._tops = _mask(i for i in ids if parent[i] < 0)
        #: (bit, parent bit, ID, parent ID) per step of the universe.
        steps = [(1 << i, 1 << parent[i], i, parent[i]) for i in ids
                 if parent[i] >= 0]
        #: Downward rules walk forced / determined steps ascending.
        self._forced = [step for step in steps
                        if table.forced & step[0]]
        self._determined = [step for step in steps
                            if table.determined & step[0]]
        #: Upward rules walk every step / element steps descending.
        self._up = steps[::-1]
        self._up_elements = [step for step in self._up
                             if elements & step[0]]
        self._base_nn = _ROOT | table.chains(bits(lhs))
        self._base_eq = _ROOT | lhs | table.chains(
            i for i in bits(lhs) if elements >> i & 1)
        self._memo: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._regions: dict[int, int] = {}
        #: When set to a list, top-level rule applications append
        #: (kind, path, reason) events for explanation rendering.
        self.events: list[tuple[str, Path, str]] | None = None
        self._in_branch = 0
        self._budget = _guard.current() if _guard.active else None

    # -- the fixpoint -------------------------------------------------------

    def solve(self, assumed_nn: int, assumed_eq: int,
              depth: int) -> tuple[int, int]:
        """``(EQ, NN)`` at fixpoint from the assumed facts."""
        key = (assumed_nn, assumed_eq, depth)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        nn = assumed_nn | self._base_nn
        eq = assumed_eq | self._base_eq
        changed = True
        while changed:
            if self._budget is not None:
                self._budget.tick_steps()
            if _faults.active:
                _faults.fire(_SITE_ITERATION)
            if _obs.enabled:
                _obs.inc("closure.iterations")
            new_eq, new_nn = self._structural_rules(eq, nn)
            new_eq = self._sigma_rules(new_eq, new_nn)
            changed = new_eq != eq or new_nn != nn
            eq, nn = new_eq, new_nn
            if depth > 0 and not changed:
                eq, changed = self._case_split(eq, nn, depth)

        result = (eq, nn)
        self._memo[key] = result
        return result

    def _record(self, kind: str, i: int, reason: str) -> None:
        if self.events is not None and not self._in_branch:
            self.events.append((kind, self.table.path(i), reason))

    def _structural_rules(self, eq: int, nn: int) -> tuple[int, int]:
        tracing = self.events is not None
        path = self.table.path
        # Downward: forced steps stay non-null; determined steps stay
        # equal.
        for bit, parent_bit, i, p in self._forced:
            if nn & parent_bit and not nn & bit:
                nn |= bit
                if tracing:
                    self._record("NN", i,
                                 f"forced step under non-null {path(p)}")
        for bit, parent_bit, i, p in self._determined:
            if eq & parent_bit and not eq & bit:
                eq |= bit
                if tracing:
                    self._record("EQ", i,
                                 f"determined step under equal {path(p)}")
        # Upward: non-null paths have non-null ancestors; shared nodes
        # have shared parents.
        for bit, parent_bit, i, p in self._up:
            if nn & bit and not nn & parent_bit:
                nn |= parent_bit
                if tracing:
                    self._record("NN", p, f"ancestor of non-null {path(i)}")
        for bit, parent_bit, i, p in self._up_elements:
            if eq & bit and nn & bit and not eq & parent_bit:
                eq |= parent_bit
                if tracing:
                    self._record("EQ", p,
                                 f"parent of shared node {path(i)}")
        return eq, nn

    def _sigma_rules(self, eq: int, nn: int) -> int:
        chain = self.table.chain
        for lhs_mask, _lhs_chain, rhs, dependency in self.fds:
            if lhs_mask & ~nn:
                continue  # a premise path may be null
            copied_roots = self._hybrid_roots(lhs_mask, eq & nn)
            if copied_roots is None:
                continue
            for target in rhs:
                if eq >> target & 1:
                    continue
                if chain[target] & copied_roots:
                    continue  # the hybrid copies t1 here: no information
                eq |= 1 << target
                if self.events is not None:
                    self._record("EQ", target,
                                 self._fired(dependency, copied_roots))
        return eq

    def _fired(self, dependency: FD, copied_roots: int) -> str:
        if not copied_roots:
            return f"FD {dependency} fires (premise shared)"
        roots = ", ".join(sorted(str(self.table.path(w))
                                 for w in bits(copied_roots)))
        return f"FD {dependency} via the hybrid tuple copied at {{{roots}}}"

    def _hybrid_roots(self, premise: int, shared: int) -> int | None:
        """The copied-subtree roots ``W`` (a bitmask) for a non-null FD
        premise, or ``None`` if the hybrid tuple is not guaranteed to
        exist.

        Premise paths not in ``shared = EQ ∩ NN`` must lie in a subtree
        whose root hangs off a provably shared node — that root is the
        shortest element-path prefix outside ``shared`` (its parent is
        inside: the shared region is prefix-closed on element paths,
        and by construction every shorter prefix of the chosen root is
        shared).  IDs ascend along a chain, so it is the lowest bit.
        """
        roots = 0
        chain, elements = self.table.chain, self.table.elements
        for i in bits(premise & ~shared):
            outside = chain[i] & elements & ~shared
            if not outside:
                # Every element prefix is shared: the path itself is an
                # attribute/text of a shared node and the downward rules
                # will catch up — treat as not yet derivable.
                return None
            roots |= outside & -outside
        return roots

    def _case_split(self, eq: int, nn: int, depth: int) -> tuple[int, bool]:
        for witness in self._split_candidates(eq, nn):
            null_region = self._null_region(witness)
            if self._budget is not None:
                self._budget.tick_branches()
            if _obs.enabled:
                _obs.inc("closure.case_splits")
            self._in_branch += 1
            try:
                branch_nonnull, _ = self.solve(nn | 1 << witness, eq,
                                               depth - 1)
                branch_null, _ = self.solve(nn, eq | null_region,
                                            depth - 1)
            finally:
                self._in_branch -= 1
            common = branch_nonnull & branch_null & ~eq
            if common:
                eq |= common
                if self.events is not None:
                    reason = (f"case split on nullness of "
                              f"{self.table.path(witness)} (derivable in "
                              "both branches)")
                    for fact in bits(common):
                        self._record("EQ", fact, reason)
                return eq, True  # re-run the cheap monotone rules first
        return eq, False

    def _split_candidates(self, eq: int, nn: int) -> Iterator[int]:
        """Null-correlated paths worth splitting on, in ID order:
        premise paths of FDs that have not fired (and their element
        prefixes), plus derived-equal element paths whose parents are
        still unshared.

        The second family closes a completeness gap: when a Σ rule
        derives ``EQ(w)`` for an element path ``w`` that is not known
        non-null, the upward "parent of shared node" rule cannot fire,
        yet ``w``'s nullness *is* correlated (equal values are null
        together).  Splitting on ``w`` resolves it — the non-null
        branch shares the parent directly, the null branch nulls the
        whole region that must vanish with ``w`` — so facts like
        ``EQ(parent(w))`` become derivable even when no unfired FD
        happens to mention ``w``.  (Found via the seed-69910 Prop. 6
        pin: a create step rewrote Σ so the only FD mentioning the
        split path disappeared, and a previously-derivable node
        equality silently stopped being derived, making a cured
        attribute path look newly anomalous.)
        """
        parent, elements = self.table.parent, self.table.elements
        shared = eq & nn
        open_ = ~nn & ~self._tops
        candidates = 0
        for lhs_mask, lhs_chain, _rhs, _fd in self.fds:
            if not lhs_mask & ~shared:
                continue  # fired
            prefixes = lhs_chain & open_
            candidates |= prefixes & eq
            for i in bits(prefixes & ~eq & elements):
                if shared >> parent[i] & 1:
                    candidates |= 1 << i
        for i in bits(eq & elements & open_):
            if not eq >> parent[i] & 1:
                candidates |= 1 << i
        return bits(candidates)

    def _null_region(self, witness: int) -> int:
        """Paths null (in both tuples) whenever ``witness`` is: its own
        subtree, widened upward while the step from the parent is
        forced (a node cannot lack a required attribute, text, or
        forced child)."""
        parent, forced = self.table.parent, self.table.forced
        base = witness
        while parent[base] >= 0 and forced >> base & 1:
            base = parent[base]
        region = self._regions.get(base)
        if region is None:
            chain = self.table.chain
            region = _mask(i for i in self._ids if chain[i] >> base & 1)
            self._regions[base] = region
        return region
