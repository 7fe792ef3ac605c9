"""Per-layer tracing from outside the program.

The program under test is not modified.  Instead, :class:`Tracer`
re-binds each layer's public entry points — in the module that defines
them and in every ``repro`` module that imported them by name — to
wrappers that record a span (layer, start, end, parent) in memory.
After a traced pass, :func:`summarize` folds the spans into per-layer
call counts, inclusive time (outermost spans of a layer only) and self
time (a span's duration minus the part its child spans cover).

Work counters come from the program's own ``repro.obs`` registry,
which the traced run enables and the untraced runs leave off.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

#: The layer of the benchmark's own span around each measured operation.
ROOT = "op"

#: (module, attribute path, layer).  Layers are named after the modules
#: they time.
ENTRY_POINTS = (
    ("repro.dtd.parser", "parse_dtd", "dtd.parse"),
    ("repro.fd.model", "parse_fds", "fd.parse"),
    ("repro.fd.model", "FD.parse", "fd.parse"),
    ("repro.spec", "XMLSpec.parse", "spec.parse"),
    ("repro.spec", "XMLSpec.__init__", "spec.build"),
    ("repro.spec", "XMLSpec.implies", "spec.op"),
    ("repro.spec", "XMLSpec.decide", "spec.op"),
    ("repro.spec", "XMLSpec.xnf_violations", "spec.op"),
    ("repro.spec", "XMLSpec.is_in_xnf", "spec.op"),
    ("repro.spec", "XMLSpec.normalize", "spec.op"),
    ("repro.dtd.model", "DTD.paths", "dtd.paths"),
    ("repro.fd.implication", "ImplicationEngine.__init__",
     "implication.engine"),
    ("repro.fd.implication", "ImplicationEngine.implies", "implication"),
    ("repro.fd.implication", "ImplicationEngine.decide", "implication"),
    ("repro.fd.implication", "ImplicationEngine.is_trivial",
     "implication.trivial"),
    ("repro.fd.implication", "is_trivial", "implication.trivial"),
    ("repro.fd.closure", "closure_implies", "closure"),
    ("repro.fd.closure", "pair_closure", "closure"),
    ("repro.fd.chase", "chase_implies", "chase"),
    ("repro.xnf.check", "xnf_violations", "xnf"),
    ("repro.xnf.check", "is_in_xnf", "xnf"),
    ("repro.xnf.anomalous", "anomalous_sigma_fds", "xnf"),
    ("repro.xnf.anomalous", "anomalous_paths", "xnf"),
    ("repro.xnf.anomalous", "minimal_anomalous_fd", "xnf"),
    ("repro.normalize.algorithm", "normalize", "normalize"),
    ("repro.normalize.transforms", "create_element_type",
     "normalize.transform"),
    ("repro.normalize.transforms", "move_attribute",
     "normalize.transform"),
    ("repro.dtd.serializer", "serialize_dtd", "serialize"),
)


class Tracer:
    """Records spans around the entry points in :data:`ENTRY_POINTS`
    while installed.  Single-threaded: one span stack per tracer."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index]`` per span, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span of ``layer`` around the ``with`` body."""
        index = self._open(layer)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    # -- installation --------------------------------------------------

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Re-bind every entry point to its traced wrapper."""
        import importlib
        for module_name, attr, layer in entry_points:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, member = attr.split(".")
                self._install_member(getattr(module, class_name), member,
                                     layer)
            else:
                self._install_function(module, attr, layer)

    def _install_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapper = self.wrap(layer, original)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "") \
                    .startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapper)

    def _install_member(self, cls: type, name: str, layer: str) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(layer, raw.__func__))
        elif isinstance(raw, functools.cached_property):
            replacement = functools.cached_property(
                self.wrap(layer, raw.func))
            replacement.__set_name__(cls, name)
        else:
            replacement = self.wrap(layer, raw)
        self._set(cls, name, replacement)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


class Checkpoints(Tracer):
    """While installed (a ``with`` block), calls ``watch.checkpoint()``
    on entry to ``entry_points`` once at least ``every_s`` has passed
    since the last, so a long in-process operation is corrected for
    the machine's speed stretch by stretch rather than by the probes at
    its two ends (see ``harness.Stopwatch``)."""

    def __init__(self, watch, entry_points, every_s: float = 0.0) -> None:
        super().__init__()
        self.watch = watch
        self.entry_points = entry_points
        self.every_s = every_s

    def wrap(self, layer: str, fn):
        watch, every_s = self.watch, self.every_s

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            if watch.elapsed() >= every_s:
                watch.checkpoint()
            return fn(*args, **kwargs)

        return checked

    def __enter__(self) -> "Checkpoints":
        self.install(self.entry_points)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


#: Checkpoints for a k=16 normalization: before each of its sixteen
#: steps.
NORMALIZE_STEPS = tuple(entry for entry in ENTRY_POINTS
                        if entry[2] == "normalize.transform")
#: Checkpoints for a serial batch: before a task's spec is parsed.
SPEC_PARSE = tuple(entry for entry in ENTRY_POINTS
                   if entry[2] == "spec.parse")


@dataclass
class LayerTimes:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


@dataclass
class TraceSummary:
    layers: dict[str, LayerTimes] = field(default_factory=dict)
    #: Share of the :data:`ROOT` spans' time covered by layer spans.
    attributed: float = 0.0

    def get(self, layer: str) -> LayerTimes:
        return self.layers.get(layer, LayerTimes())

    def self_ms(self) -> dict[str, float]:
        """Self time per layer, largest first: where the time went."""
        return {layer: round(times.self_s * 1000.0, 1) for layer, times
                in sorted(self.layers.items(),
                          key=lambda item: -item[1].self_s)}


def summarize(spans: list[list]) -> TraceSummary:
    """Fold spans into per-layer calls, inclusive and self time."""
    children_s = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children_s[parent] += end - start
    summary = TraceSummary()
    root_total = root_self = 0.0
    for index, (layer, start, end, parent) in enumerate(spans):
        times = summary.layers.setdefault(layer, LayerTimes())
        duration = end - start
        own = duration - children_s[index]
        times.calls += 1
        times.self_s += own
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            times.inclusive_s += duration
        if layer == ROOT:
            root_total += duration
            root_self += own
    if root_total > 0:
        summary.attributed = 1.0 - root_self / root_total
    return summary


def engine_metrics(summary: TraceSummary,
                   counters: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of the parse/spec/engine layers, from one
    traced pass: times from spans, work from ``repro.obs`` counters."""
    def ms(layer: str, kind: str = "inclusive_s") -> float:
        return getattr(summary.get(layer), kind) * 1000.0

    hits = counters.get("implication.cache.hit", 0)
    misses = counters.get("implication.cache.miss", 0)
    queries = hits + misses
    return {
        "dtd.parse_ms": ms("dtd.parse"),
        "fd.parse_ms": ms("fd.parse"),
        "spec.build_ms": ms("spec.build"),
        "spec.builds": summary.get("spec.build").calls,
        "dtd.paths_ms": ms("dtd.paths"),
        "implication.queries": queries,
        "implication.cache_hit_ratio": hits / queries if queries else 0.0,
        "implication.engines": summary.get("implication.engine").calls,
        "implication.trivial_queries":
            summary.get("implication.trivial").calls,
        "implication.fallbacks":
            counters.get("implication.fallback.closure_to_chase", 0),
        "closure.calls": summary.get("closure").calls,
        "closure.ms": ms("closure"),
        "closure.iterations": counters.get("closure.iterations", 0),
        "chase.calls": summary.get("chase").calls,
        "chase.ms": ms("chase"),
        "chase.steps": counters.get("chase.steps", 0),
        "chase.branches": counters.get("chase.branches.explored", 0),
        "xnf.anomalous_self_ms": ms("xnf", "self_s"),
        "xnf.candidates": counters.get("xnf.candidates.examined", 0),
        "normalize.rounds": counters.get("normalize.rounds", 0),
        "normalize.steps": sum(value for name, value in counters.items()
                               if name.startswith("normalize.steps.")),
        "normalize.transform_self_ms":
            ms("normalize.transform", "self_s"),
        "serialize.ms": ms("serialize"),
    }


def nonrepeating(first: dict[str, int], second: dict[str, int],
                 ) -> list[str]:
    """Counters whose values differ between two identical passes."""
    return sorted(name for name in set(first) | set(second)
                  if first.get(name, 0) != second.get(name, 0))


def covered_s(spans: list[list], layers: set[str]) -> float:
    """Seconds covered by spans of ``layers``, counting each instant
    once: only spans with no ancestor in ``layers`` contribute."""
    total = 0.0
    for layer, start, end, parent in spans:
        if layer not in layers:
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] not in layers:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total += end - start
    return total
