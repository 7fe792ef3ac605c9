"""repro — a reproduction of "A Normal Form for XML Documents"
(Arenas & Libkin, PODS 2002).

The package implements XML functional dependencies, the XML normal
form XNF, and the lossless XNF decomposition algorithm, together with
every substrate the paper relies on: DTDs with regular-expression
content models, unordered XML trees, tree tuples, FDs over incomplete
relations, classical relational normalization (BCNF), and nested
relations with PNF/NNF.

Quickstart::

    from repro import XMLSpec

    spec = XMLSpec.parse(dtd_text, fd_lines)
    spec.is_in_xnf()                  # Definition 8 (via Prop. 10)
    result = spec.normalize()         # the Figure 4 algorithm
    print(result.dtd)                 # the XNF redesign
    new_doc = result.migrate(doc)     # carry documents across, lossless
"""

__version__ = "1.0.0"

import importlib
import sys
import types

#: Every public name, with the module that defines it.  Nothing is
#: imported until first use (PEP 562), so ``import repro.cli`` or
#: ``import repro.fd`` loads only the modules its caller runs.
_EXPORTS = {
    # DTDs and paths
    "DTD": "repro.dtd.model",
    "Path": "repro.dtd.paths",
    "parse_dtd": "repro.dtd.parser",
    "serialize_dtd": "repro.dtd.serializer",
    "is_simple_dtd": "repro.dtd.classify",
    "is_disjunctive_dtd": "repro.dtd.classify",
    # XML trees
    "XMLTree": "repro.xmltree.model",
    "elem": "repro.xmltree.model",
    "parse_xml": "repro.xmltree.parser",
    "serialize_xml": "repro.xmltree.serializer",
    "conforms": "repro.xmltree.conformance",
    # tree tuples
    "TreeTuple": "repro.tuples.model",
    "tuples_of": "repro.tuples.extract",
    "trees_of": "repro.tuples.build",
    # FDs
    "FD": "repro.fd.model",
    "satisfies": "repro.fd.satisfaction",
    "implies": "repro.fd.implication",
    "is_trivial": "repro.fd.implication",
    "ImplicationEngine": "repro.fd.implication",
    # XNF + normalization
    "is_in_xnf": "repro.xnf.check",
    "xnf_violations": "repro.xnf.check",
    "normalize": "repro.normalize.algorithm",
    "normalize_simple": "repro.normalize.simple_algorithm",
    "NormalizationResult": "repro.normalize.algorithm",
    "NewElementNames": "repro.normalize.transforms",
    # the facade
    "XMLSpec": "repro.spec",
    # extensions: MVDs (Section 8), reporting, explanations
    "MVD": "repro.mvd.model",
    "satisfies_mvd": "repro.mvd.satisfaction",
    "tree_induced_mvds": "repro.mvd.induced",
    "is_in_xnf4": "repro.mvd.xnf4",
    "DesignReport": "repro.report",
    "analyze": "repro.report",
    "redundancy_of": "repro.report",
    "explain_implication": "repro.fd.explain",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    else:
        # A subpackage, so that ``import repro; repro.dtd`` works
        # without importing ``repro.dtd`` first.
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as error:
            if error.name != f"{__name__}.{name}":
                raise
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Loading a subpackage binds it on its parent, and
        # ``repro.normalize`` is both a subpackage and the Figure 4
        # function.  The name keeps meaning the function.
        if isinstance(value, types.ModuleType) and name in _EXPORTS:
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

