"""Paths in DTDs and XML trees.

A path ``w1.w2. ... .wn`` starts at the root element type; every step
but the last is an element name, and the last step is an element name,
an attribute name (``@l``), or the reserved text symbol ``S``
(#PCDATA).  The textual syntax is dot-separated, exactly as in the
paper (``courses.course.@cno``).

:class:`Path` is immutable and hashable, so paths can be set members
and dict keys throughout the FD machinery.  :class:`PathTable` interns
the paths of one DTD to small integer IDs for the closure engine.
"""

from __future__ import annotations

import threading
import weakref
from functools import total_ordering
from typing import TYPE_CHECKING, Collection, Iterable, Iterator

from repro.errors import InvalidPathError

if TYPE_CHECKING:
    from repro.dtd.model import DTD

#: Reserved step denoting #PCDATA content.
TEXT_STEP = "S"


@total_ordering
class Path:
    """An immutable path: a non-empty sequence of steps."""

    __slots__ = ("_steps", "_hash")

    def __init__(self, steps: tuple[str, ...] | list[str]) -> None:
        steps = tuple(steps)
        if not steps:
            raise InvalidPathError("a path must have at least one step")
        for index, step in enumerate(steps):
            if not step:
                raise InvalidPathError("path steps must be non-empty")
            if index < len(steps) - 1 and (step.startswith("@")
                                           or step == TEXT_STEP):
                raise InvalidPathError(
                    f"non-final step {step!r} must be an element name "
                    f"in path {'.'.join(steps)!r}")
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_hash", hash(steps))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Path is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse dot-separated syntax, e.g. ``courses.course.@cno``."""
        text = text.strip()
        if not text:
            raise InvalidPathError("empty path")
        return cls(tuple(part.strip() for part in text.split(".")))

    @classmethod
    def root(cls, element: str) -> "Path":
        """The length-one path consisting of the root element type."""
        return cls((element,))

    # -- accessors ---------------------------------------------------------

    @property
    def steps(self) -> tuple[str, ...]:
        return self._steps

    @property
    def last(self) -> str:
        """``last(p)``: the final step."""
        return self._steps[-1]

    @property
    def length(self) -> int:
        """``length(p)``: the number of steps."""
        return len(self._steps)

    @property
    def is_attribute(self) -> bool:
        """Whether the path ends in an attribute (``@l``)."""
        return self.last.startswith("@")

    @property
    def is_text(self) -> bool:
        """Whether the path ends in the text symbol ``S``."""
        return self.last == TEXT_STEP

    @property
    def is_element(self) -> bool:
        """Whether the path ends in an element type (an *EPath*)."""
        return not (self.is_attribute or self.is_text)

    @property
    def parent(self) -> "Path":
        """The path with the final step removed."""
        if len(self._steps) == 1:
            raise InvalidPathError(f"path {self} has no parent")
        return Path(self._steps[:-1])

    @property
    def element_prefix(self) -> "Path":
        """The longest element-path prefix: the path itself if it is an
        element path, otherwise its parent."""
        return self if self.is_element else self.parent

    def child(self, step: str) -> "Path":
        """Extend the path by one step."""
        if not self.is_element:
            raise InvalidPathError(
                f"cannot extend non-element path {self} with {step!r}")
        return Path(self._steps + (step,))

    def attribute(self, name: str) -> "Path":
        """Extend with an attribute step; ``name`` may omit the ``@``."""
        if not name.startswith("@"):
            name = "@" + name
        return self.child(name)

    @property
    def text(self) -> "Path":
        """Extend with the text step ``S``."""
        return self.child(TEXT_STEP)

    def prefixes(self, *, proper: bool = False) -> Iterator["Path"]:
        """All prefixes, shortest first; ``proper`` excludes the path
        itself."""
        end = len(self._steps) - (1 if proper else 0)
        for length in range(1, end + 1):
            yield Path(self._steps[:length])

    def is_prefix_of(self, other: "Path", *, proper: bool = False) -> bool:
        """Whether this path is a prefix of ``other``."""
        if len(self._steps) > len(other._steps):
            return False
        if proper and len(self._steps) == len(other._steps):
            return False
        return other._steps[:len(self._steps)] == self._steps

    def replace_prefix(self, old: "Path", new: "Path") -> "Path":
        """Rewrite a leading occurrence of ``old`` to ``new``."""
        if not old.is_prefix_of(self):
            raise InvalidPathError(f"{old} is not a prefix of {self}")
        return Path(new._steps + self._steps[len(old._steps):])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._steps == other._steps

    def __lt__(self, other: "Path") -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._steps < other._steps

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[str]:
        return iter(self._steps)

    def __str__(self) -> str:
        return ".".join(self._steps)

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"


class PathTable:
    """The paths of one DTD, interned to integer IDs on demand.

    Built lazily per DTD (:attr:`repro.dtd.model.DTD.path_table`) and
    grown only by the paths it is asked about and their prefixes, so it
    stays finite for recursive DTDs.  A parent is interned before its
    children: IDs ascend along every prefix chain, and they are handed
    out in request order, never in hash order.

    Per ID: ``parent[i]`` (``-1`` for a length-one path) and
    ``chain[i]`` (a bitmask of the path's prefixes, itself included);
    :meth:`path` rebuilds the :class:`Path` for the API boundary.
    Bitmasks over all IDs classify the last step: ``elements`` (element
    paths; the rest end in an attribute or the text step), ``forced``
    (a non-null parent forces the step non-null: attributes, text,
    children of multiplicity ``1``/``+``) and ``determined`` (equal
    parents force the step equal: attributes, text, children of
    multiplicity ``1``/``?``).  Interning is locked, so one table can
    serve concurrent engines.  The table refers to its DTD weakly, so
    the pair is freed by reference counting, not left to the cycle
    collector.
    """

    def __init__(self, dtd: "DTD") -> None:
        self._dtd = weakref.ref(dtd)
        self._ids: dict[tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._steps: list[tuple[str, ...]] = []
        self.parent: list[int] = []
        self.chain: list[int] = []
        self.elements = 0
        self.forced = 0
        self.determined = 0
        self.id(Path.root(dtd.root))

    def id(self, path: Path) -> int:
        """The ID of ``path``, interning it (and its prefixes) if new."""
        found = self._ids.get(path._steps)
        if found is None:
            with self._lock:
                found = self._intern(path._steps)
        return found

    def mask(self, paths: Iterable[Path]) -> int:
        """The bitmask of ``paths``."""
        mask = 0
        for path in paths:
            mask |= 1 << self.id(path)
        return mask

    def chains(self, ids: Iterable[int]) -> int:
        """The prefix-closure of the paths ``ids`` as a bitmask."""
        mask = 0
        for i in ids:
            mask |= self.chain[i]
        return mask

    def path(self, i: int) -> Path:
        """The path with ID ``i``."""
        return Path(self._steps[i])

    def to_paths(self, mask: int) -> frozenset[Path]:
        """The paths of a bitmask."""
        return frozenset(self.path(i) for i in bits(mask))

    def embeds(self, mask: int, other: "PathTable",
               changed: Collection[tuple[str, str]]) -> bool:
        """Whether the paths of ``mask`` (a prefix-closed bitmask of
        this table) reappear unchanged in ``other``: none ends in a
        ``(parent type, step)`` pair of ``changed`` — so, the mask
        being prefix-closed, no step along any of them changed — and
        ``other`` has interned every one of them, with IDs ascending
        in this table's ID order."""
        ids, last = other._ids, -1
        for i in bits(mask):
            steps = self._steps[i]
            if len(steps) > 1 and steps[-2:] in changed:
                return False
            found = ids.get(steps)
            if found is None or found <= last:
                return False
            last = found
        return True

    def _intern(self, steps: tuple[str, ...]) -> int:
        found = self._ids.get(steps)
        if found is not None:
            return found
        parent = self._intern(steps[:-1]) if len(steps) > 1 else -1
        index = len(self._steps)
        bit = 1 << index
        if parent < 0:
            chain = bit
        else:
            chain = self.chain[parent] | bit
            forced, determined = self._dtd().step_class(steps[-2],
                                                        steps[-1])
            if forced:
                self.forced |= bit
            if determined:
                self.determined |= bit
        step = steps[-1]
        if not (step.startswith("@") or step == TEXT_STEP):
            self.elements |= bit
        self._steps.append(steps)
        self.parent.append(parent)
        self.chain.append(chain)
        self._ids[steps] = index
        return index


def bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_paths(text: str) -> list[Path]:
    """Parse a comma-separated list of paths."""
    return [Path.parse(part) for part in text.split(",") if part.strip()]
