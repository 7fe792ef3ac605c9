"""Shared plumbing for the perfbench workloads.

Everything here is program-agnostic: paths inside the checkout, the
pinned child-process environment, subprocess timing with per-child
peak RSS, order statistics, the correctness tally, timing corrected
for the machine's speed (:class:`Stopwatch`) and the per-run
environment record.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for generated inputs and outputs, listed in the
#: repository's ``.gitignore``.  Each run has its own directory under it
#: (named after the run's process id, which its re-execution keeps), so
#: runs that share a checkout at the same time never read each other's
#: server logs or delete each other's files.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORK = os.path.join(WORK_ROOT, f"run-{os.getpid()}")

#: Every process the benchmark starts runs under this hash seed, so the
#: engine's set iteration order (and with it its counters) is fixed.
HASH_SEED = "0"


def child_env(**extra: str) -> dict[str, str]:
    """The environment of every child process: pinned hash seed, the
    checkout's ``src`` on the import path, observability and fault
    injection off unless a caller asks for them."""
    env = dict(os.environ)
    for name in ("REPRO_OBS", "REPRO_FAULTS"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def fresh_workdir(name: str) -> str:
    """An empty directory under :data:`WORK` for one workload."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@dataclass
class Finished:
    """One completed child process."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], *, env: dict[str, str] | None = None,
              cwd: str | None = None, timeout_s: float = 150.0,
              ) -> Finished:
    """Run ``argv`` to completion; wall time and the child's own peak
    RSS come from ``wait4``, so nothing else is measured with it.  A
    child that outlives ``timeout_s`` is killed."""
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=env or child_env(), cwd=cwd or ROOT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    stdout, stderr)


def python_child(args: list[str], **kwargs) -> Finished:
    """:func:`run_child` for ``python <args>`` under this interpreter."""
    return run_child([sys.executable, *args], **kwargs)


def stop_child(proc: subprocess.Popen, *, sig: int = signal.SIGTERM,
               timeout_s: float = 20.0) -> tuple[int, float]:
    """Signal ``proc`` and reap it; returns ``(exit code, peak RSS MB)``.
    A child that outlives ``timeout_s`` is killed (exit code negative)."""
    if proc.poll() is None:
        proc.send_signal(sig)
    deadline = time.perf_counter() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# -- order statistics ----------------------------------------------------

def median(values: list[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile (the definition ``repro.obs`` uses)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(quantile * len(ordered))) - 1))
    return ordered[rank]


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


# -- correctness ---------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted, and every one that failed, was refused,
    got lost or answered wrongly."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def bulk(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{what}: {failed}/{attempted}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- machine speed -------------------------------------------------------

#: The speed probe's work: hashing, allocation and dict/set traffic of
#: the kind the program's engines do, which a shared host's neighbours
#: slow more than a tight integer loop; about 4 ms on an unloaded core
#: of a 2-core x86 host under CPython 3.11, the reference speed below.
PROBE_ROUNDS = 4000
REFERENCE_PROBE_S = 0.004
_PROBE_WORDS = [f"w{index}" for index in range(64)]


def _loop_s(iterations: int) -> float:
    """Wall time of a fixed pure-Python integer loop."""
    started = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return time.perf_counter() - started


def _probe_once_s() -> float:
    started = time.perf_counter()
    counts: dict[tuple[str, int], int] = {}
    pairs: set[frozenset[str]] = set()
    words = _PROBE_WORDS
    for index in range(PROBE_ROUNDS):
        key = (words[index % 64], index % 37)
        counts[key] = counts.get(key, 0) + 1
        pair = frozenset((words[index % 29], words[index % 31]))
        if pair not in pairs:
            pairs.add(pair)
    sorted(counts.items())
    return time.perf_counter() - started


def probe_s() -> float:
    """The machine's speed right now: the median of three probes."""
    return median([_probe_once_s() for _ in range(3)])


class Stopwatch:
    """Times operations in reference-speed seconds.

    A shared host's speed drifts up to twofold within seconds and over
    minutes (other tenants, frequency), and a fixed piece of Python
    work slows with it much as the program does.  So every timed
    stretch is followed by a speed probe, and its wall time is scaled
    by ``REFERENCE_PROBE_S`` over the mean of the probes just before
    and just after it: the time it would have taken at the reference
    speed.  An operation is one stretch unless something inside it
    calls :meth:`checkpoint`.  Over 22 s windows of the k=16 XNF test
    in a noisy hour the IQR/median fell from 0.29 (wall) to 0.03 with
    this probe (at 6000 rounds), against 0.12 with an integer loop.
    A stretch must be short against the drift: a 15 s normalization
    corrected only at its ends spread more than its wall time.  The
    wall times are reported beside the corrected ones.
    """

    def __init__(self) -> None:
        self._last = probe_s()
        self._started = 0.0
        self._wall = self._corrected = 0.0

    def restart(self) -> None:
        """Probe again, after work that is not timed."""
        self._last = probe_s()

    def scale(self) -> float:
        """The correction factor for everything timed since the last
        probe; probes again."""
        before, self._last = self._last, probe_s()
        return 2.0 * REFERENCE_PROBE_S / (before + self._last)

    def time(self, fn, *args, **kwargs):
        """``(wall seconds, corrected seconds, result)`` of one call,
        excluding the probes of any :meth:`checkpoint` inside it."""
        self._wall = self._corrected = 0.0
        self._started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.checkpoint()
        return self._wall, self._corrected, result

    def elapsed(self) -> float:
        """Inside :meth:`time`: wall seconds since the last stretch began."""
        return time.perf_counter() - self._started

    def checkpoint(self) -> None:
        """Inside :meth:`time`: close the stretch timed so far, correct
        it by the probes around it, and start the next after probing."""
        wall = time.perf_counter() - self._started
        self._wall += wall
        self._corrected += wall * self.scale()
        self._started = time.perf_counter()

    def time_child(self, argv: list[str], **kwargs):
        """:func:`run_child`; returns ``(finished, corrected seconds)``."""
        finished = run_child(argv, **kwargs)
        return finished, finished.wall_s * self.scale()


# -- environment record --------------------------------------------------

def calibration_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop: the machine's
    speed at the time of the run, for comparing runs across machines."""
    return median([_loop_s(300_000) for _ in range(repeats)]) * 1000.0


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "calibration_ms": round(calibration_ms(), 3)}


def timed_setup(watch: Stopwatch, modules: list[str], build, *args,
                repeats: int = 5):
    """A workload's set-up, ``repeats`` times: a fresh interpreter
    importing ``modules``, then ``build(*args)`` in this one.  Returns
    the medians ``(wall s, corrected s)`` and the last build's result."""
    walls, corrected = [], []
    code = "import " + ", ".join(modules)
    for _ in range(repeats):
        finished, child_s = watch.time_child([sys.executable, "-c", code])
        if finished.returncode != 0:
            raise RuntimeError(f"cannot import {modules}: "
                               + finished.stderr.decode(errors="replace"))
        wall, built_s, result = watch.time(build, *args)
        walls.append(finished.wall_s + wall)
        corrected.append(child_s + built_s)
    return median(walls), median(corrected), result


@dataclass
class Outcome:
    """What one workload run produced: end-to-end metrics under the
    names the workload defines them by, per-layer metrics (traced runs
    only), the correctness tally and free-form notes for the report."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    notes: dict = field(default_factory=dict)
