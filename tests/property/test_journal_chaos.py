"""Parent-kill chaos: SIGKILL the ``xnf batch`` supervisor at seeded
random points and prove ``--resume`` loses nothing and changes no
bytes.

This is the acceptance harness for the batch journal: each case runs
the real CLI in a subprocess, kills it with SIGKILL (no cleanup, no
atexit — the honest crash), then loops ``--resume`` until a run
completes, and byte-compares the final summary against an
uninterrupted serial run of the same manifest.  After every kill,
each ``--workers`` pool process of the dead supervisor must exit on
its own (none may be left orphaned).  The manifest carries
deterministic per-task failures (broken DTDs → permanent
dead-letters) rather than ``REPRO_FAULTS`` arms: fault plans fire at
process-global hit counts, so a resumed tail would see different
faults than the uninterrupted run and the byte-identity oracle would
be meaningless.  ``--breaker-threshold`` is set high for the same
reason the contract scopes byte-identity to no-breaker-opened runs.

Scale knobs (CI raises them in the chaos-resume job):
``REPRO_RESUME_TASKS`` manifest size, ``REPRO_RESUME_KILL_POINTS``
kill points per backend.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

TASKS = int(os.environ.get("REPRO_RESUME_TASKS", "40"))
KILL_POINTS = int(os.environ.get("REPRO_RESUME_KILL_POINTS", "3"))
MAX_RESUMES = 25

GOOD_DTD = ("<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>\n"
            "<!ATTLIST a id CDATA #REQUIRED>")
BROKEN_DTD = "<!ELEMENT r (unclosed"


def _write_manifest(path, count=TASKS):
    with open(path, "w") as stream:
        stream.write(json.dumps(
            {"schema": "repro.runtime.manifest", "version": 1,
             "defaults": {"seed": 7}, "count": count}) + "\n")
        for index in range(count):
            dtd = BROKEN_DTD if index % 7 == 3 else GOOD_DTD
            stream.write(json.dumps(
                {"id": f"t-{index:04d}", "op": "check",
                 "dtd_text": dtd}) + "\n")


def _cmd(manifest, workers=1, journal=None, resume=False):
    cmd = [sys.executable, "-m", "repro", "batch", str(manifest),
           "--backoff-base", "0", "--breaker-threshold", "1000000",
           "--workers", str(workers)]
    if journal is not None:
        cmd += ["--journal", str(journal)]
    if resume:
        cmd += ["--resume"]
    return cmd


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__),
                                 "..", "..", "src"),
                    env.get("PYTHONPATH")) if p)
    env.pop("REPRO_FAULTS", None)
    return env


def _expected(manifest):
    """The uninterrupted serial run: the byte-identity oracle."""
    start = time.monotonic()
    proc = subprocess.run(_cmd(manifest), capture_output=True,
                          env=_env())
    assert proc.returncode == 5, proc.stderr.decode()
    return proc.stdout, time.monotonic() - start


def _assert_journal_invariants(journal):
    """No task result duplicated; every line before the last intact."""
    text = journal.read_bytes().decode()
    seen = set()
    lines = text.splitlines(keepends=True)
    for position, line in enumerate(lines):
        if not line.endswith("\n"):
            assert position == len(lines) - 1, \
                "torn record not at the tail"
            continue
        record = json.loads(line)
        if record["record"] == "result":
            assert record["index"] not in seen, \
                f"duplicate result for index {record['index']}"
            seen.add(record["index"])


def _stat(pid):
    """``(state, start time)`` of ``pid`` from Linux ``/proc``, or
    ``None`` once it is gone.  The start time tells a reused PID from
    the original process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The fields after the parenthesised command name start at
            # the state; the start time is the 22nd field overall.
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        return None
    return fields[0], fields[19]


def _children(pid):
    """``{pid: start time}`` of ``pid``'s child processes (empty where
    ``/proc`` is unavailable)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            pids = [int(child) for child in handle.read().split()]
    except OSError:
        return {}
    return {child: stat[1] for child in pids
            if (stat := _stat(child)) is not None}


def _assert_no_orphans(workers, deadline_s=10.0):
    """Every pool worker of a SIGKILLed parent exits on its own."""
    def running():
        # A zombie has exited and only awaits its reaper.
        return [pid for pid, started in workers.items()
                if (stat := _stat(pid)) is not None
                and stat[1] == started and stat[0] != "Z"]

    deadline = time.monotonic() + deadline_s
    while running() and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = running()
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans, f"pool workers outlived their parent: {orphans}"


def _kill_until_resumed(manifest, journal, workers, rng, baseline_s):
    """Launch fresh, SIGKILL after a random delay, then resume (each
    resume killed again with decreasing probability) until a run
    completes.  Returns the completed process."""
    resume = False
    for attempt in range(MAX_RESUMES):
        proc = subprocess.Popen(
            _cmd(manifest, workers, journal, resume),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env())
        resume = True
        # Kill points spread across the whole run, including the
        # startup window (journal may not exist yet) and the tail.
        must_kill = attempt == 0 or rng.random() < 0.5
        if must_kill:
            time.sleep(rng.uniform(0.05, 1.1) * baseline_s)
            pool = _children(proc.pid)
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            _assert_no_orphans(pool)
            _assert_journal_invariants(journal) \
                if journal.exists() else None
            continue
        stdout, stderr = proc.communicate(timeout=120)
        if proc.returncode == 5:
            return stdout, stderr
        pytest.fail(f"resume exited {proc.returncode}: "
                    f"{stderr.decode()}")
    pytest.fail(f"no resume completed within {MAX_RESUMES} attempts")


@pytest.mark.parametrize("workers", [1, 4])
def test_parent_sigkill_resume_is_byte_identical(tmp_path, workers):
    if workers > 1:
        pool_mod = pytest.importorskip("repro.runtime.pool")
        if not pool_mod.pool_available():
            pytest.skip("fork start method unavailable")
    manifest = tmp_path / "m.jsonl"
    _write_manifest(manifest)
    expected, baseline_s = _expected(manifest)
    rng = random.Random(0xD1E + workers)
    for point in range(KILL_POINTS):
        journal = tmp_path / f"w{workers}-p{point}.journal"
        stdout, stderr = _kill_until_resumed(
            manifest, journal, workers, rng, baseline_s)
        assert stdout == expected, \
            f"workers={workers} point={point}: summary diverged"
        summary = json.loads(stdout)
        assert summary["counts"]["lost"] == 0
        _assert_journal_invariants(journal)


def test_mid_append_tear_is_recoverable(tmp_path):
    """The mid-append kill window, forced deterministically: the
    ``truncate`` kind at ``runtime.journal.append`` writes a torn
    record and aborts (exit 2); ``--resume`` truncates the tear with
    a warning and completes byte-identically."""
    manifest = tmp_path / "m.jsonl"
    _write_manifest(manifest)
    expected, _ = _expected(manifest)
    journal = tmp_path / "torn.journal"
    env = _env()
    env["REPRO_FAULTS"] = "runtime.journal.append:truncate:17"
    env["REPRO_FAULTS_SEED"] = "3"
    first = subprocess.run(_cmd(manifest, journal=journal),
                           capture_output=True, env=env)
    assert first.returncode == 2, first.stderr.decode()
    assert b"torn append" in first.stderr
    assert not journal.read_bytes().endswith(b"\n")
    resumed = subprocess.run(
        _cmd(manifest, journal=journal, resume=True),
        capture_output=True, env=_env())
    assert resumed.returncode == 5, resumed.stderr.decode()
    assert b"torn trailing record" in resumed.stderr
    assert resumed.stdout == expected
    _assert_journal_invariants(journal)
