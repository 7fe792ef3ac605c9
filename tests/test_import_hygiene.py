"""Import discipline: each ``xnf`` command loads only what it runs.

Every check runs in a fresh interpreter, because what matters is what
an import or a command pulls into an empty ``sys.modules``, and the
test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.datasets.ebxml import EBXML_DTD
from repro.datasets.university import UNIVERSITY_DTD, UNIVERSITY_FDS

SRC = str(Path(__file__).resolve().parents[1] / "src")
DATA = Path(__file__).resolve().parent / "data"

#: The service stack: nothing that decides, normalizes or parses may
#: load it.  (Prefixes match the module and its submodules.)
SERVICE_STACK = ("http.server", "email", "ssl", "repro.obs.export",
                 "repro.serve", "repro.runtime", "repro.bench")

#: Where each public name of ``repro`` came from when the package
#: imported every subpackage eagerly.
SEED_EXPORTS = {
    "repro.dtd": ["DTD", "Path", "parse_dtd", "serialize_dtd",
                  "is_simple_dtd", "is_disjunctive_dtd"],
    "repro.xmltree": ["XMLTree", "elem", "parse_xml", "serialize_xml",
                      "conforms"],
    "repro.tuples": ["TreeTuple", "tuples_of", "trees_of"],
    "repro.fd": ["FD", "satisfies", "implies", "is_trivial",
                 "ImplicationEngine"],
    "repro.xnf": ["is_in_xnf", "xnf_violations"],
    "repro.normalize": ["normalize", "normalize_simple",
                        "NormalizationResult", "NewElementNames"],
    "repro.spec": ["XMLSpec"],
    "repro.mvd": ["MVD", "satisfies_mvd", "tree_induced_mvds",
                  "is_in_xnf4"],
    "repro.report": ["DesignReport", "analyze", "redundancy_of"],
    "repro.fd.explain": ["explain_implication"],
}


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_FAULTS", None)
    return env


def _python(code: str) -> str:
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=_env())
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded_by(statement: str) -> set[str]:
    """Modules that ``statement`` adds to a fresh ``sys.modules``."""
    return set(json.loads(_python(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")))


def _matching(modules: set[str], prefixes) -> list[str]:
    return sorted(name for name in modules
                  if any(name == prefix or name.startswith(prefix + ".")
                         for prefix in prefixes))


@pytest.mark.parametrize("module", ["repro.cli", "repro.spec", "repro.fd",
                                    "repro.xnf", "repro.normalize"])
def test_theory_imports_leave_the_service_stack_unloaded(module):
    loaded = _loaded_by(f"import {module}")
    assert module in loaded
    assert _matching(loaded, SERVICE_STACK) == []


#: What a command may not load unless it runs it.  The parser itself
#: needs ``repro.bench.cli`` and ``repro.obs.cli`` for the ``bench`` and
#: ``obs`` subcommands, but not the runner, comparator or profiler.
COMMAND_STACK = tuple(prefix for prefix in SERVICE_STACK
                      if prefix != "repro.bench") + (
    "repro.bench.runner", "repro.bench.compare", "repro.bench.suites",
    "repro.obs.profile", "repro.obs.ledger")


def test_commands_load_only_what_they_run(tmp_path):
    dtd = tmp_path / "u.dtd"
    dtd.write_text(UNIVERSITY_DTD)
    fds = tmp_path / "u.fds"
    fds.write_text(UNIVERSITY_FDS)
    ebxml = tmp_path / "e.dtd"
    ebxml.write_text(EBXML_DTD)

    def run(*argv):
        return _loaded_by(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main({[str(arg) for arg in argv]!r})")

    check = run("check", dtd, fds)
    assert "repro.xnf.check" in check
    assert _matching(check, COMMAND_STACK + ("repro.normalize",)) == []
    classify = run("classify", ebxml)
    assert "repro.dtd.classify" in classify
    assert _matching(classify, COMMAND_STACK
                     + ("repro.fd", "repro.spec", "repro.xnf")) == []


def test_public_names_resolve_as_before():
    """``repro.X`` is the object the eager package bound, for every
    name — including ``repro.normalize``, the Figure 4 function, after
    the ``repro.normalize`` subpackage has been loaded directly."""
    report = json.loads(_python(
        "import importlib, json\n"
        "import repro.normalize.checkpoint\n"
        "import repro\n"
        "from repro import normalize\n"
        f"seed = {SEED_EXPORTS!r}\n"
        "print(json.dumps({\n"
        "    'all': repro.__all__,\n"
        "    'from_import_is_function': callable(normalize)\n"
        "        and normalize.__module__ == 'repro.normalize.algorithm',\n"
        "    'mismatches': [\n"
        "        name for package, names in seed.items() for name in names\n"
        "        if getattr(repro, name)\n"
        "        is not getattr(importlib.import_module(package), name)],\n"
        "}))\n"))
    expected = {name for names in SEED_EXPORTS.values() for name in names}
    assert set(report["all"]) == expected | {"__version__"}
    assert report["from_import_is_function"]
    assert report["mismatches"] == []


@pytest.mark.parametrize("argv, golden", [
    ([], "xnf_help.txt"),
    (["bench"], "xnf_bench_help.txt"),
    (["obs"], "xnf_obs_help.txt"),
])
def test_help_text_is_unchanged(argv, golden):
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv, "--help"],
        capture_output=True, text=True, env=_env())
    assert result.returncode == 0, result.stderr
    # Python 3.10 titles the section "optional arguments".
    text = result.stdout.replace("optional arguments:", "options:")
    assert text == (DATA / golden).read_text()


def test_exporter_loads_on_first_use():
    exporter = obs.start_exporter(0)
    try:
        assert isinstance(exporter, obs.MetricsExporter)
        with urllib.request.urlopen(exporter.url("/healthz"),
                                    timeout=10) as response:
            assert response.status == 200
    finally:
        exporter.stop()
    with obs.MetricsExporter(port=0) as exporter:
        with urllib.request.urlopen(exporter.url(),
                                    timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain")
    assert obs.prometheus_text is obs.export.prometheus_text
