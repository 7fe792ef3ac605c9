"""Comparing two benchmark reports: the regression gate.

The gate is **counter-based**: operation counters are deterministic
and machine-independent, so any counter that moves the wrong way
beyond the tolerance is a real algorithmic regression, not scheduler
noise.  The wrong way is growth for every work counter and a fall for
cache hits (``*.cache.hit``, higher is better).  Wall
time and peak memory are *advisory* — they are reported when they move
beyond the tolerance but never fail the gate, because a CI runner's
timings say more about the runner than about the code.

Findings come in three severities:

* ``regression`` — a gating violation (work-counter growth, a
  cache-hit fall, a complexity claim flipping to FAIL, a series point
  disappearing);
* ``advisory``  — wall time / memory movement, for human eyes;
* ``note``      — benign drift (improvements, new benchmarks).

:func:`compare_payloads` returns the findings; :func:`gate` reduces
them to the exit code contract (0 pass, 1 regression).  Structural
problems — unreadable files, schema version mismatch, a baseline
benchmark missing from the current report — raise
:class:`~repro.bench.schema.BenchReportError`, which the CLI maps to
exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.bench.schema import BenchReportError, validate


@dataclass(frozen=True)
class Finding:
    severity: str        # "regression" | "advisory" | "note"
    benchmark: str
    detail: str

    def render(self) -> str:
        return f"[{self.severity}] {self.benchmark}: {self.detail}"


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and schema-validate a report file."""
    source = str(path)
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise BenchReportError(f"cannot read {source}: {error}")
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise BenchReportError(f"{source}: not valid JSON ({error})")
    return validate(payload, source=source)


def _point_label(entry: dict, point: dict) -> str:
    if point.get("value") is None:
        return ""
    return f" [{entry.get('param', 'n')}={point['value']}]"


def _index_points(entry: dict) -> dict:
    return {json.dumps(p.get("value")): p for p in entry["points"]}


def compare_payloads(baseline: dict, current: dict, *,
                     tolerance: float = 0.05) -> list[Finding]:
    """Diff two validated payloads; see the module docstring.

    ``tolerance`` is the allowed relative growth (0.05 = +5 %).
    """
    findings: list[Finding] = []
    base_benchmarks = baseline["benchmarks"]
    curr_benchmarks = current["benchmarks"]

    missing = sorted(set(base_benchmarks) - set(curr_benchmarks))
    if missing:
        raise BenchReportError(
            "current report is missing baseline benchmark(s): "
            + ", ".join(missing)
            + " — run the same suite (--quick vs full) as the "
            "baseline, or refresh the baseline")
    for name in sorted(set(curr_benchmarks) - set(base_benchmarks)):
        findings.append(Finding("note", name,
                                "new benchmark (no baseline yet)"))

    for name in sorted(base_benchmarks):
        base_entry = base_benchmarks[name]
        curr_entry = curr_benchmarks[name]
        curr_points = _index_points(curr_entry)
        for base_point in base_entry["points"]:
            key = json.dumps(base_point.get("value"))
            label = _point_label(base_entry, base_point)
            curr_point = curr_points.get(key)
            if curr_point is None:
                findings.append(Finding(
                    "regression", name,
                    f"series point{label} disappeared"))
                continue
            findings.extend(_compare_counters(
                name, label, base_point, curr_point, tolerance))
            findings.extend(_compare_advisory(
                name, label, base_point, curr_point, tolerance))
        findings.extend(_compare_claims(name, base_entry, curr_entry))
    return findings


def higher_is_better(counter: str) -> bool:
    """Whether growth of ``counter`` is an improvement: cache hits
    (``*.cache.hit``) count work avoided; every other counter counts
    work done."""
    return counter.endswith(".cache.hit")


def _compare_counters(name: str, label: str, base: dict, curr: dict,
                      tolerance: float) -> list[Finding]:
    findings = []
    counters = sorted(set(base["counters"]) | set(curr["counters"]))
    for counter in counters:
        before = base["counters"].get(counter, 0)
        after = curr["counters"].get(counter, 0)
        grew = after > before and after - before > before * tolerance
        fell = before > after and before - after > after * tolerance
        if higher_is_better(counter):
            grew, fell = fell, grew
            moved = "fell"
        else:
            moved = "grew"
        if grew:
            findings.append(Finding(
                "regression", name,
                f"counter {counter}{label} {moved} {before} -> {after} "
                f"({_pct(after, before)}, tolerance "
                f"{tolerance:.0%})"))
        elif fell:
            findings.append(Finding(
                "note", name,
                f"counter {counter}{label} improved "
                f"{before} -> {after}"))
    return findings


def _compare_advisory(name: str, label: str, base: dict, curr: dict,
                      tolerance: float) -> list[Finding]:
    findings = []
    for field, unit, scale in (("time_s", "ms", 1e3),
                               ("mem_peak_kb", "KiB", 1.0)):
        before = base.get(field)
        after = curr.get(field)
        if before is None or after is None or before <= 0:
            continue
        if after > before * (1 + tolerance):
            findings.append(Finding(
                "advisory", name,
                f"{field}{label} {before * scale:.2f} -> "
                f"{after * scale:.2f} {unit} "
                f"({_pct(after, before)}; advisory only, never "
                f"gated)"))
    return findings


def _compare_claims(name: str, base_entry: dict,
                    curr_entry: dict) -> list[Finding]:
    base_claim = base_entry.get("claim")
    curr_claim = curr_entry.get("claim")
    if not base_claim or not curr_claim:
        return []
    if base_claim.get("passed") and not curr_claim.get("passed"):
        fitted = curr_claim.get("slope", curr_claim.get("base"))
        return [Finding(
            "regression", name,
            f"complexity claim {curr_claim['statement']} now FAILS "
            f"(fitted {fitted:.2f} vs bound {curr_claim['bound']})")]
    if not base_claim.get("passed") and curr_claim.get("passed"):
        return [Finding("note", name,
                        f"complexity claim "
                        f"{curr_claim['statement']} now passes")]
    return []


def _pct(after: float, before: float) -> str:
    if before == 0:
        return "new"  # counter appeared from zero: no base to scale by
    return f"{(after - before) / before:+.1%}"


def gate(findings: list[Finding]) -> int:
    """0 when no finding is a regression, 1 otherwise."""
    return 1 if any(f.severity == "regression" for f in findings) else 0


def render_findings(findings: list[Finding], *,
                    tolerance: float) -> str:
    """Human-readable comparison summary."""
    lines = []
    by_severity = {"regression": 0, "advisory": 0, "note": 0}
    for finding in findings:
        by_severity[finding.severity] += 1
        lines.append(finding.render())
    verdict = ("FAIL: counter regression(s) beyond tolerance"
               if by_severity["regression"]
               else "OK: no counter regressions")
    lines.append(f"{verdict} (tolerance {tolerance:.0%}; "
                 f"{by_severity['regression']} regression(s), "
                 f"{by_severity['advisory']} advisory, "
                 f"{by_severity['note']} note(s))")
    return "\n".join(lines) + "\n"
