"""The implication engine's work does not depend on ``PYTHONHASHSEED``.

The closure engine visits paths in the ID order of the DTD's path
table, never in set-iteration order, so a normalization and an XNF
test do the same work — identical ``closure.*`` and ``implication.*``
counters, the count of verdicts carried from one normalization state
to the next included — and write byte-identical output under any
string-hash seed.  Each seed runs in its own interpreter, since the
seed is fixed at start-up.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
from repro import obs
from repro.datasets.generators import scaled_university_spec
from repro.dtd.serializer import serialize_dtd
from repro.obs import metrics

obs.enable()
spec = scaled_university_spec(4)
violations = spec.xnf_violations()
result = spec.normalize()
output = (serialize_dtd(result.dtd)
          + "".join(f"# FD: {fd}\\n" for fd in result.sigma)
          + "".join(f"# violation: {fd}\\n" for fd in violations))
counters = {name: value for name, value
            in metrics.counters_snapshot().items()
            if name.startswith(("closure.", "implication."))}
print(json.dumps({"counters": counters, "output": output}))
"""


def run_under(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_OBS", None)
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            capture_output=True, text=True, env=env,
                            check=True)
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def runs() -> dict[str, dict]:
    return {seed: run_under(seed) for seed in ("0", "1", "4242")}


def test_counters_identical_across_hash_seeds(runs):
    counters = {seed: run["counters"] for seed, run in runs.items()}
    assert counters["0"]["closure.iterations"] > 0
    assert counters["0"]["implication.cache.miss"] > 0
    # Which verdicts carry from one normalization state to the next
    # depends on path-ID order, so the carried count pins that too.
    assert counters["0"]["implication.cache.carried"] > 0
    assert counters["1"] == counters["0"]
    assert counters["4242"] == counters["0"]


def test_output_byte_identical_across_hash_seeds(runs):
    outputs = {seed: run["output"] for seed, run in runs.items()}
    assert "# violation: " in outputs["0"]
    assert outputs["1"] == outputs["0"]
    assert outputs["4242"] == outputs["0"]
