"""The chase-based FD implication engine (general non-recursive DTDs).

To decide ``(D, Σ) |- S -> q`` we search for a countermodel: a tree
``T |= D`` satisfying Σ with two maximal tuples that agree (non-null)
on ``S`` but differ on ``q``.  The search space is organized as a
*tableau chase*:

1. **Skeleton** — the most general candidate: two tuples ``t1, t2``
   materialized over the prefix-closure of ``S ∪ {q}``, sharing exactly
   the nodes that any agreeing pair must share (the root, the element
   paths of ``S`` with their ancestors, and their ``1``/``?``-children,
   transitively); all other values are fresh distinct symbols, except
   the ``S``-values, which are shared.  Minimal presence and minimal
   sharing are optimal: extra nodes or equalities can only trigger more
   Σ-constraints and never enable new countermodels.

2. **Completion** — each node is repaired to conform to its production
   (missing required attributes, text, and a *minimal* multiset of
   missing children).  Where several minimal completions exist — i.e.
   where the DTD has unrestricted disjunction — the search forks; this
   is exactly the ``N_D`` factor of Theorems 4/5, and the reason the
   engine is worst-case exponential while staying polynomial when
   ``N_D`` is logarithmic.

3. **Chase** — while some pair of maximal tuples violates an FD of Σ,
   the offending values are unified: string symbols are equated; nodes
   are merged (cascading upward to keep a tree and sideways over
   children with at-most-one multiplicity).  A branch whose node counts
   can no longer satisfy a production is contradictory and dropped.

4. **Verification** — a finished branch is model-checked: if it
   conforms (unordered), satisfies Σ and violates the query, it *is* a
   countermodel and the answer is "not implied".  If every branch fails,
   the FD is implied (the chased tableau is universal among candidate
   countermodels).

The engine requires a non-recursive DTD.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Iterator

from repro.errors import RecursionLimitError, ReproError, ResourceExhausted
from repro.dtd.model import DTD
from repro.dtd.paths import TEXT_STEP, Path
from repro.faults import plan as _faults
from repro.fd.model import FD
from repro.guard import budget as _guard
from repro.obs import metrics as _obs
from repro.fd.satisfaction import satisfies, satisfies_all, violating_pairs
from repro.regex.analysis import occurrence_bounds
from repro.regex.ast import Concat, PCData, Regex
from repro.regex.matching import matches_multiset
from repro.tuples.extract import tuples_of
from repro.xmltree.conformance import conforms_unordered
from repro.xmltree.model import XMLTree

#: Hard caps keeping pathological inputs from running away.
MAX_BRANCHES = 4096
MAX_CHASE_STEPS = 20000
MAX_COMPLETION_EXTRA = 6

_SITE_BRANCH = _faults.register_site(
    "fd.chase.branch", "fd",
    "each tableau branch popped from the chase worklist")
_SITE_STEP = _faults.register_site(
    "fd.chase.step", "fd",
    "each repair/violation pass of the per-branch chase loop")


class _Contradiction(Exception):
    """This tableau branch cannot be repaired into a conforming tree."""


def chase_implies(dtd: DTD, sigma: Iterable[FD], fd: FD, *,
                  max_branches: int = MAX_BRANCHES) -> bool:
    """Decide ``(D, Σ) |- fd`` (single- or multi-RHS)."""
    if dtd.is_recursive:
        raise RecursionLimitError(
            "the chase engine requires a non-recursive DTD")
    sigma = list(sigma)
    with _obs.timer("chase.implies"):
        return all(
            _implies_single(dtd, sigma, FD(fd.lhs, frozenset({rhs})),
                            max_branches=max_branches)
            for rhs in fd.rhs)


def _implies_single(dtd: DTD, sigma: list[FD], fd: FD, *,
                    max_branches: int) -> bool:
    rhs = fd.single_rhs
    if rhs in fd.lhs:
        return True
    skeleton = _Skeleton(dtd, fd)
    if skeleton.structurally_implied:
        return True
    budget = _guard.current() if _guard.active else None
    pending = [skeleton.build()]
    explored = 0
    try:
        while pending:
            explored += 1
            if explored > max_branches:
                raise ReproError(
                    f"chase exceeded {max_branches} disjunction branches; "
                    "the DTD's N_D is too large for exact implication")
            if budget is not None:
                budget.tick_branches()
            if _faults.active:
                _faults.fire(_SITE_BRANCH)
            if _obs.enabled:
                _obs.inc("chase.branches.explored")
            tableau = pending.pop()
            try:
                forks = _chase_branch(dtd, sigma, tableau, budget)
            except _Contradiction:
                if _obs.enabled:
                    _obs.inc("chase.branches.pruned")
                continue
            if forks is not None:
                if _obs.enabled:
                    _obs.inc("chase.branches.forked", len(forks))
                pending.extend(forks)
                continue
            if _obs.enabled:
                _obs.observe("chase.tableau.nodes", len(tableau.labels))
            tree = tableau.to_tree()
            if (conforms_unordered(tree, dtd)
                    and satisfies_all(tree, dtd, sigma)
                    and not satisfies(tree, dtd, fd)):
                if _obs.enabled:
                    _obs.inc("chase.countermodels")
                return False  # verified countermodel
    except ResourceExhausted as error:
        error.partial.setdefault("engine", "chase")
        error.partial.setdefault("query", str(fd))
        error.partial.setdefault("branches_explored", explored)
        error.partial.setdefault("branches_pending", len(pending))
        raise
    return True


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------

class _Tableau:
    """A mutable candidate countermodel with symbolic values."""

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self.labels: dict[str, str] = {}
        self.parents: dict[str, str | None] = {}
        self.children: dict[str, list[str]] = {}
        self.attrs: dict[tuple[str, str], str] = {}
        self.text: dict[str, str] = {}
        self.root: str | None = None
        self._node_counter = 0
        self._symbol_counter = 0

    # -- construction -------------------------------------------------------

    def fresh_symbol(self) -> str:
        symbol = f"${self._symbol_counter}"
        self._symbol_counter += 1
        return symbol

    def add_node(self, label: str, parent: str | None) -> str:
        node = f"n{self._node_counter}"
        self._node_counter += 1
        self.labels[node] = label
        self.parents[node] = parent
        self.children[node] = []
        if parent is None:
            if self.root is not None:
                raise AssertionError("tableau already has a root")
            self.root = node
        else:
            self.children[parent].append(node)
        return node

    def clone(self) -> "_Tableau":
        duplicate = _Tableau(self.dtd)
        duplicate.labels = dict(self.labels)
        duplicate.parents = dict(self.parents)
        duplicate.children = {n: list(c) for n, c in self.children.items()}
        duplicate.attrs = dict(self.attrs)
        duplicate.text = dict(self.text)
        duplicate.root = self.root
        duplicate._node_counter = self._node_counter
        duplicate._symbol_counter = self._symbol_counter
        if hasattr(self, "_forwards"):
            duplicate._forwards = dict(self._forwards)
        return duplicate

    # -- value unification ----------------------------------------------------

    def unify_symbols(self, first: str, second: str) -> None:
        """Equate two string symbols (global substitution)."""
        if first == second:
            return
        keep, drop = sorted([first, second])
        for key, value in list(self.attrs.items()):
            if value == drop:
                self.attrs[key] = keep
        for node, value in list(self.text.items()):
            if value == drop:
                self.text[node] = keep

    # -- node merging -----------------------------------------------------------

    def merge_nodes(self, first: str, second: str) -> None:
        """Merge two nodes (which always sit at the same DTD path, hence
        share a label), cascading upward so the result stays a tree and
        sideways over at-most-one children."""
        first = self._resolve(first)
        second = self._resolve(second)
        if first == second:
            return
        parent1 = self.parents[first]
        parent2 = self.parents[second]
        if parent1 != parent2:
            assert parent1 is not None and parent2 is not None
            self.merge_nodes(parent1, parent2)
            first = self._resolve(first)
            second = self._resolve(second)
            if first == second:
                return
        self._absorb(first, second)

    def _resolve(self, node: str) -> str:
        # Nodes removed by merging are redirected via _forwards.
        forwards = getattr(self, "_forwards", None)
        if forwards is None:
            return node
        while node in forwards:
            node = forwards[node]
        return node

    def _absorb(self, keep: str, drop: str) -> None:
        if not hasattr(self, "_forwards"):
            self._forwards: dict[str, str] = {}
        parent = self.parents[drop]
        if parent is not None:
            siblings = self.children[parent]
            self.children[parent] = [c for c in siblings if c != drop]
        for child in self.children.pop(drop, []):
            self.parents[child] = keep
            self.children[keep].append(child)
        for (node, attr), value in list(self.attrs.items()):
            if node == drop:
                del self.attrs[(node, attr)]
                existing = self.attrs.get((keep, attr))
                if existing is None:
                    self.attrs[(keep, attr)] = value
                elif existing != value:
                    self.unify_symbols(existing, value)
        if drop in self.text:
            value = self.text.pop(drop)
            existing = self.text.get(keep)
            if existing is None:
                self.text[keep] = value
            elif existing != value:
                self.unify_symbols(existing, value)
        del self.labels[drop]
        del self.parents[drop]
        self._forwards[drop] = keep
        # Sideways cascade: children with at-most-one multiplicity must
        # collapse; impossible counts are a contradiction.
        self._collapse_children(keep)

    def _collapse_children(self, node: str) -> None:
        label = self.labels[node]
        by_label: dict[str, list[str]] = {}
        for child in self.children[node]:
            by_label.setdefault(self.labels[child], []).append(child)
        for child_label, members in by_label.items():
            if len(members) < 2:
                continue
            multiplicity = self.dtd.child_multiplicity(label, child_label)
            if multiplicity.at_most_one:
                survivor = members[0]
                for other in members[1:]:
                    self._absorb(survivor, self._resolve(other))
                    survivor = self._resolve(survivor)
            else:
                _low, high = occurrence_bounds(
                    self.dtd.content(label), child_label)
                if len(members) > high:
                    raise _Contradiction

    # -- export ---------------------------------------------------------------

    def to_tree(self) -> XMLTree:
        tree = XMLTree()
        assert self.root is not None

        def build(node: str, parent: str | None) -> None:
            tree.add_node(self.labels[node], node_id=node, parent=parent,
                          attrs={attr: value
                                 for (owner, attr), value in self.attrs.items()
                                 if owner == node},
                          text=self.text.get(node))
            for child in self.children[node]:
                build(child, node)

        build(self.root, None)
        return tree.freeze()


# ---------------------------------------------------------------------------
# Skeleton construction
# ---------------------------------------------------------------------------

class _Skeleton:
    """Builds the initial two-tuple tableau for a query FD."""

    def __init__(self, dtd: DTD, fd: FD) -> None:
        self.dtd = dtd
        self.fd = fd
        self.rhs = fd.single_rhs
        self.present = self._present_paths()
        self.shared = self._shared_paths()
        self.structurally_implied = self._structurally_implied()

    def _present_paths(self) -> set[Path]:
        present: set[Path] = set()
        for path in self.fd.lhs | {self.rhs}:
            present.update(path.prefixes())
        return present

    def _shared_paths(self) -> set[Path]:
        shared: set[Path] = {Path.root(self.dtd.root)}
        for path in self.fd.lhs:
            if path.is_element:
                shared.update(path.prefixes())
        changed = True
        while changed:
            changed = False
            for path in self.present:
                if path.length == 1 or not path.is_element:
                    continue
                if path in shared or path.parent not in shared:
                    continue
                multiplicity = self.dtd.child_multiplicity(
                    path.parent.last, path.last)
                if multiplicity.at_most_one:
                    shared.add(path)
                    changed = True
        return shared

    def _structurally_implied(self) -> bool:
        if self.rhs.is_element:
            return self.rhs in self.shared
        return self.rhs.element_prefix in self.shared

    def build(self) -> _Tableau:
        tableau = _Tableau(self.dtd)
        sides: dict[Path, list[str]] = {}
        for path in sorted((p for p in self.present if p.is_element),
                           key=lambda p: p.length):
            if path.length == 1:
                node = tableau.add_node(path.last, None)
                sides[path] = [node, node]
                continue
            parents = sides[path.parent]
            if path in self.shared:
                node = tableau.add_node(path.last, parents[0])
                sides[path] = [node, node]
            elif parents[0] == parents[1]:
                sides[path] = [tableau.add_node(path.last, parents[0]),
                               tableau.add_node(path.last, parents[0])]
            else:
                sides[path] = [tableau.add_node(path.last, parents[0]),
                               tableau.add_node(path.last, parents[1])]
        # LHS attribute/text values are shared symbols; everything else
        # (in particular the RHS) gets distinct fresh symbols during
        # completion, which keeps the tableau maximally general.
        for path in self.fd.lhs:
            if path.is_element:
                continue
            owners = sides[path.parent]
            symbol = tableau.fresh_symbol()
            for owner in owners:
                if path.is_attribute:
                    tableau.attrs[(owner, path.last)] = symbol
                else:
                    tableau.text[owner] = symbol
        return tableau


# ---------------------------------------------------------------------------
# Chase loop
# ---------------------------------------------------------------------------

def _chase_branch(dtd: DTD, sigma: list[FD], tableau: _Tableau,
                  budget: "_guard.Budget | None" = None,
                  ) -> list[_Tableau] | None:
    """Run one branch to fixpoint.

    Returns ``None`` when the branch reached a fixpoint (caller then
    verifies it), or a list of forked tableaux when a completion had
    several minimal options.  Raises :class:`_Contradiction` if the
    branch is unsatisfiable, :class:`ResourceExhausted` if ``budget``
    trips mid-branch.
    """
    for _step in range(MAX_CHASE_STEPS):
        if budget is not None:
            budget.tick_steps()
        if _faults.active:
            _faults.fire(_SITE_STEP)
        forks = _repair(dtd, tableau, budget)
        if forks is not None:
            return forks
        violation = _find_violation(dtd, sigma, tableau)
        if violation is None:
            return None
        if _obs.enabled:
            _obs.inc("chase.steps")
        _fix_violation(dtd, tableau, *violation)
    raise ReproError("chase did not terminate within the step budget")


def _repair(dtd: DTD, tableau: _Tableau,
            budget: "_guard.Budget | None" = None,
            ) -> list[_Tableau] | None:
    """Repair attributes, text and child multisets node by node.

    Deterministic repairs are applied in place; the first node with
    several minimal child completions forks the tableau.
    """
    progress = True
    while progress:
        progress = False
        for node in list(tableau.labels):
            if node not in tableau.labels:
                continue  # merged away
            label = tableau.labels[node]
            for attr in dtd.attrs(label):
                if (node, attr) not in tableau.attrs:
                    tableau.attrs[(node, attr)] = tableau.fresh_symbol()
                    progress = True
            production = dtd.content(label)
            if isinstance(production, PCData):
                if node not in tableau.text:
                    tableau.text[node] = tableau.fresh_symbol()
                    progress = True
                continue
            counts = Counter(
                tableau.labels[child] for child in tableau.children[node])
            if matches_multiset(production, counts):
                continue
            completions = _minimal_completions(production, counts)
            if not completions:
                raise _Contradiction
            if len(completions) == 1:
                _apply_completion(dtd, tableau, node, completions[0],
                                  budget)
                progress = True
                continue
            forks = []
            for completion in completions:
                fork = tableau.clone()
                _apply_completion(dtd, fork, node, completion, budget)
                forks.append(fork)
            return forks
    return None


def _minimal_completions(production: Regex,
                         counts: Counter) -> list[Counter]:
    """The minimal addition multisets making the children match the
    production up to permutation — the ⊆-antichain of matching
    additions.  (Incomparable minima of different sizes both matter:
    for ``(a | (b, c))`` and no children, both ``{a}`` and ``{b, c}``
    are minimal branch choices.)

    Concatenations over pairwise-disjoint alphabets — the disjunctive
    productions of Section 7 — are completed factor by factor and the
    per-factor options cross-combined, which keeps the ``2^m`` branch
    structure of ``m`` disjunctions without an exponential scan of the
    whole alphabet.
    """
    if isinstance(production, Concat):
        alphabets = [part.alphabet() for part in production.parts]
        disjoint = all(
            not (alphabets[i] & alphabets[j])
            for i in range(len(alphabets))
            for j in range(i + 1, len(alphabets)))
        if disjoint:
            per_factor: list[list[Counter]] = []
            for part, alphabet in zip(production.parts, alphabets):
                part_counts = Counter(
                    {s: c for s, c in counts.items() if s in alphabet})
                if matches_multiset(part, part_counts):
                    options = [Counter()]
                else:
                    options = _enumerate_completions(part, part_counts)
                if not options:
                    return []
                per_factor.append(options)
            combined: list[Counter] = []
            for combo in itertools.product(*per_factor):
                total = Counter()
                for piece in combo:
                    total += piece
                combined.append(total)
            # Factor-wise minimality gives global minimality for
            # disjoint alphabets; still drop exact duplicates.
            unique: list[Counter] = []
            for addition in combined:
                if addition not in unique and addition:
                    unique.append(addition)
            return unique
    return _enumerate_completions(production, counts)


def _enumerate_completions(production: Regex,
                           counts: Counter) -> list[Counter]:
    """Exhaustive antichain search (used per factor / as fallback)."""
    alphabet = sorted(production.alphabet())
    deficit = sum(
        max(0, occurrence_bounds(production, symbol)[0] - counts[symbol])
        for symbol in alphabet)
    bound = deficit + MAX_COMPLETION_EXTRA
    matching: list[Counter] = []
    for total in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(alphabet, total):
            addition = Counter(combo)
            # Skip supersets of an already-found match (smaller totals
            # were enumerated first, so this keeps only the antichain).
            if any(not (found - addition) for found in matching):
                continue
            if matches_multiset(production, counts + addition):
                matching.append(addition)
    return matching


def _apply_completion(dtd: DTD, tableau: _Tableau, node: str,
                      addition: Counter,
                      budget: "_guard.Budget | None" = None) -> None:
    if budget is not None:
        budget.tick_nodes(sum(addition.values()))
    for label, count in addition.items():
        for _ in range(count):
            tableau.add_node(label, node)


def _find_violation(dtd: DTD, sigma: list[FD], tableau: _Tableau):
    tree = tableau.to_tree()
    tuples = tuples_of(tree, dtd, check_compatible=False)
    for fd in sigma:
        pairs = violating_pairs(tree, dtd, fd, tuples=tuples, limit=1)
        if pairs:
            return (fd, pairs[0][0], pairs[0][1])
    return None


def _fix_violation(dtd: DTD, tableau: _Tableau, fd: FD, t1, t2) -> None:
    """Apply one chase step for the first disagreeing RHS path.

    Only one repair is applied per call: merges and unifications can
    invalidate the values cached in ``t1``/``t2``, so the caller's
    fixpoint loop re-extracts tuples before the next step.
    """
    for path in sorted(fd.rhs, key=str):
        v1 = t1.get(path)
        v2 = t2.get(path)
        if v1 == v2:
            continue
        if v1 is not None and v2 is not None:
            if path.is_element:
                tableau.merge_nodes(v1, v2)
            else:
                tableau.unify_symbols(v1, v2)
            return
        # Exactly one side is null: the branches must join.  Merge at
        # the deepest element prefix where both tuples are non-null but
        # assign different nodes.
        join: tuple[str, str] | None = None
        for prefix in path.element_prefix.prefixes():
            a, b = t1.get(prefix), t2.get(prefix)
            if a is not None and b is not None and a != b:
                join = (a, b)
        # join cannot be None: if every common prefix were shared, tuple
        # maximality would have extended the null side to the child that
        # the non-null side sees under the same node.
        assert join is not None, "null-vs-node violation with shared spine"
        tableau.merge_nodes(*join)
        return
    raise AssertionError("violating pair without a disagreeing RHS path")
