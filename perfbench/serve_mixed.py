"""Workload ``serve_mixed``: the seeded corpus against ``xnf serve``.

A fresh ``xnf serve`` subprocess per run, so its spec cache starts
cold.  The corpus is sent first open-loop at a fixed rate from two
client threads, each request timed from when it was due, in slices
that alternate with a closed loop from two clients over the tasks
that follow, to find capacity.  Each request uses its own connection
(``Connection: close``), as ``urllib`` and the program's own load
generator do, so at most two are open at a time.  Many requests reuse
a cached spec, so the HTTP layer, admission and the spec cache
(``repro.serve``) show here and nowhere else.

Correctness: every response is a 200 whose verdict matches the
committed reference (``reference.py``); a refused, failed or lost
request counts as failed (and as missing every latency limit); the
final SIGTERM must drain cleanly (exit 0).  An open-loop slice whose
load generator itself fell behind a connection's schedule by more than
that connection's request spacing is invalid rather than slow: it is
measured again (its responses are still judged), and the count of
invalid slices goes into the run's environment record.  The lag is the
client's own scheduling on a shared machine, not an output of the
program, so it is not counted as failed.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass

import reference
from harness import (Outcome, Stopwatch, Tally, child_env, fresh_workdir,
                     median, percentile, stop_child)
from layers import nonrepeating

#: The open-loop rate.  Capacity on a 2-core box swings between about
#: 70 and 180 req/s with the machine's background load; at 100 req/s,
#: and in the slowest phases at 50 req/s, the server saturates and p50
#: jumps two- to tenfold, so the offered load stays well under the
#: slowest capacity seen.
RATE = 25.0
CONNECTIONS = 2
#: Open-loop requests per run (20 s at ``RATE``); p99 is the fifth
#: slowest.  The rest of the measured time runs the closed loop (at
#: least ``MIN_CLOSED_S``).  The two alternate in ``SLICES`` slices, so
#: both metrics sample the whole run rather than one stretch of a
#: machine whose speed drifts, and each slice is short enough (2 s
#: open, 1 s closed) for the speed probes around it to track that
#: drift.
OPEN_REQUESTS = 500
MIN_CLOSED_S = 10.0
SLICES = 10
#: The closed loop sends each of these tasks (the ones that follow the
#: open loop's in the seed's corpus) once, in order: a few tasks cost
#: a hundred times the median, so the mean cost of the 500 open-loop
#: tasks alone moves by about 15% from seed to seed, and of 2000
#: distinct tasks by about 5%.
CLOSED_POOL = 4000
#: Open-loop requests in each of the traced run's three phases.
TRACED_REQUESTS = 500
#: Each connection's own schedule: a sender later than this behind a
#: request it was free to send has distorted the schedule.
SPACING = CONNECTIONS / RATE
#: How often an invalid open-loop slice is measured again before the
#: run keeps it (with a warning).
RETRIES = 2
_ANNOUNCE = re.compile(r"serve: listening on (http://\S+)")
_ENDPOINT_OPS = {"/v1/implication": "implies", "/v1/xnf-check": "check",
                 "/v1/normalize": "normalize"}


class Server:
    """One ``xnf serve`` child on an ephemeral port."""

    def __init__(self, workdir: str, name: str, **env: str) -> None:
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=self.log,
            env=child_env(**env))
        self.url = self._await_announce()
        self._await_ready()
        self.startup_s = time.perf_counter() - started
        host, port = self.url[len("http://"):].rsplit(":", 1)
        self.address = (host, int(port))

    def _await_announce(self) -> str:
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            with open(self.log_path, "rb") as handle:
                match = _ANNOUNCE.search(handle.read().decode())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("xnf serve did not announce its port")

    def _await_ready(self) -> None:
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(self.url + "/readyz",
                                            timeout=5) as response:
                    if response.status == 200:
                        return
            except OSError:
                pass
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("xnf serve never became ready")

    def metrics(self) -> dict[str, float]:
        """The ``/metrics`` scrape as ``{series: value}``."""
        with urllib.request.urlopen(self.url + "/metrics",
                                    timeout=10) as response:
            text = response.read().decode()
        series = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                series[name] = float(value)
        return series

    def stop(self) -> tuple[int, float, str]:
        """SIGTERM, reap, and return (exit code, peak RSS MB, log)."""
        code, rss = stop_child(self.proc)
        self.log.close()
        with open(self.log_path, "rb") as handle:
            log = handle.read().decode(errors="replace")
        return code, rss, log


def post(address: tuple[str, int], endpoint: str, body: bytes,
         ) -> tuple[int | None, bytes]:
    """One request on its own connection; ``(status, body)``, where
    status ``None`` is a lost request (refused, reset or torn)."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request("POST", endpoint, body,
                     {"Content-Type": "application/json",
                      "Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as error:
        return None, repr(error).encode()
    finally:
        conn.close()


def _requests(seed: int, count: int) -> list[tuple[str, str, bytes]]:
    """``(endpoint, reference key, body)`` per corpus task."""
    from repro.runtime.corpus import iter_tasks
    from repro.serve.loadgen import task_request
    prepared = []
    for task in iter_tasks(count, seed=seed):
        endpoint, payload = task_request(task)
        prepared.append((endpoint, reference.task_key(task),
                         json.dumps(payload).encode()))
    return prepared


@dataclass(slots=True)
class Record:
    endpoint: str
    key: str
    status: int | None
    reply: bytes
    from_due: float
    from_send: float
    lag: float
    ok: bool = False
    #: The speed correction of the slice the request was sent in.
    scale: float = 1.0


def _judge(expected: dict[str, str], endpoint: str, key: str,
           status: int | None, reply: bytes) -> bool:
    if status != 200:
        return False
    try:
        body = json.loads(reply)
    except ValueError:
        return False
    got = reference.serve_verdict(_ENDPOINT_OPS[endpoint], body)
    return reference.matches(expected[key], got)


def open_loop(server: Server, requests: list, expected: dict[str, str],
              ) -> list[Record]:
    """Send ``requests`` on a fixed schedule (``RATE`` per second
    overall, round-robin over ``CONNECTIONS`` connections).  Latency is
    measured from each request's due time; ``lag`` is how late the
    generator sent a request it was free to send.  Responses are
    judged after the phase, keeping the senders' own work small."""
    records: list[Record | None] = [None] * len(requests)
    start = time.perf_counter() + 0.05

    def client(offset: int) -> None:
        free_at = 0.0
        for index in range(offset, len(requests), CONNECTIONS):
            endpoint, key, body = requests[index]
            due = start + index / RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            status, reply = post(server.address, endpoint, body)
            done = time.perf_counter()
            records[index] = Record(endpoint, key, status, reply,
                                    done - due, done - sent,
                                    sent - max(due, free_at))
            free_at = done

    _run_threads(client)
    for record in records:
        record.ok = _judge(expected, record.endpoint, record.key,
                           record.status, record.reply)
    return records


def closed_loop(server: Server, requests: list, expected: dict[str, str],
                seconds: float, tickets: itertools.count,
                ) -> tuple[int, int, float]:
    """Two clients, each sending the next request in ``tickets`` order
    as soon as its last one returns, for ``seconds``.  Returns
    (attempted, ok, elapsed)."""
    counts = [[0, 0] for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    stop_at = start + seconds

    def client(offset: int) -> None:
        while time.perf_counter() < stop_at:
            endpoint, key, body = requests[next(tickets) % len(requests)]
            status, reply = post(server.address, endpoint, body)
            counts[offset][0] += 1
            counts[offset][1] += _judge(expected, endpoint, key, status,
                                        reply)

    _run_threads(client)
    elapsed = time.perf_counter() - start
    return (sum(c[0] for c in counts), sum(c[1] for c in counts), elapsed)


def _run_threads(client) -> None:
    errors: list[BaseException] = []

    def guarded(offset: int) -> None:
        try:
            client(offset)
        except BaseException as error:  # re-raised in the caller
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(offset,))
               for offset in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _latencies(records: list[Record], *, corrected: bool = False,
               ) -> list[float]:
    """From-due latencies (corrected for the machine's speed, or wall),
    with failed requests as infinitely late."""
    return [record.from_due * (record.scale if corrected else 1.0)
            if record.ok else math.inf for record in records]


def _counters(scrape: dict[str, float]) -> dict[str, int]:
    """The ``repro.obs`` counters in a scrape, by exported name without
    the ``_total`` suffix (``implication.cache.hit`` reads
    ``implication_cache_hit``)."""
    return {name[:-len("_total")]: int(value)
            for name, value in scrape.items() if name.endswith("_total")}


def _stop_checked(tally: Tally, server: Server) -> float:
    code, rss, log = server.stop()
    tally.record(code == 0 and "drained cleanly" in log,
                 f"SIGTERM drain exited {code}")
    return rss


def _judge_open(tally: Tally, records: list[Record]) -> float:
    """Tally an open-loop phase; returns the generator's worst lag."""
    for record in records:
        tally.record(record.ok, f"{record.endpoint} answered "
                     f"{record.status} or a wrong verdict")
    return max(record.lag for record in records)


def _warn_lag(lag: float, what: str) -> None:
    print(f"serve_mixed: load generator ran {lag * 1000:.1f} ms late, "
          f"over the {SPACING * 1000:.0f} ms spacing; {what}",
          file=sys.stderr)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    tally = outcome.tally
    workdir = fresh_workdir("serve_mixed")
    expected = reference.load()
    requests = _requests(seed, OPEN_REQUESTS + CLOSED_POOL)
    requests, pool = requests[:OPEN_REQUESTS], requests[OPEN_REQUESTS:]
    if trace:
        return _traced(outcome, workdir, requests[:TRACED_REQUESTS],
                       expected)

    watch = Stopwatch()
    startups, startups_wall = [], []
    for attempt in range(5):
        watch.restart()
        server = Server(workdir, f"server{attempt}")
        startups_wall.append(server.startup_s)
        startups.append(server.startup_s * watch.scale())
        if attempt < 4:
            _stop_checked(tally, server)
    outcome.metrics["setup_s"] = (median(startups), "s")
    outcome.metrics["setup_s_wall"] = (median(startups_wall), "s")
    closed_slice_s = max(MIN_CLOSED_S,
                         seconds - len(requests) / RATE) / SLICES
    slice_size = len(requests) // SLICES
    tickets = itertools.count()
    records: list[Record] = []
    attempted = ok = invalid = 0
    elapsed = elapsed_wall = max_lag = 0.0
    try:
        for start in range(0, len(requests), slice_size):
            chunk = requests[start:start + slice_size]
            for retry in range(RETRIES + 1):
                sent = open_loop(server, chunk, expected)
                scale = watch.scale()
                for record in sent:
                    record.scale = scale
                lag = _judge_open(tally, sent)
                if lag <= SPACING:
                    break
                invalid += 1
                _warn_lag(lag, "slice measured again" if retry < RETRIES
                          else "slice kept")
            records += sent
            max_lag = max(max_lag, lag)
            done = closed_loop(server, pool, expected, closed_slice_s,
                               tickets)
            attempted += done[0]
            ok += done[1]
            elapsed_wall += done[2]
            elapsed += done[2] * watch.scale()
    finally:
        rss = _stop_checked(tally, server)
    tally.bulk(attempted, attempted - ok, "closed-loop requests failed")
    latencies = _latencies(records, corrected=True)
    walls = _latencies(records)
    capacity = ok / elapsed
    outcome.metrics.update({
        "latency_p50_ms": (percentile(latencies, 0.50) * 1000.0, "ms"),
        "latency_p99_ms": (percentile(latencies, 0.99) * 1000.0, "ms"),
        "capacity_rps": (capacity, "1/s"),
        "ms_per_request_at_capacity": (1000.0 / capacity, "ms"),
        "latency_p50_ms_wall": (percentile(walls, 0.50) * 1000.0, "ms"),
        "latency_p99_ms_wall": (percentile(walls, 0.99) * 1000.0, "ms"),
        "capacity_rps_wall": (ok / elapsed_wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    })
    outcome.notes.update(open_loop_requests=len(records),
                         closed_loop_requests=attempted,
                         generator_max_lag_ms=round(max_lag * 1000.0, 3),
                         invalid_slices=invalid)
    return outcome


def _traced(outcome: Outcome, workdir: str, requests: list,
            expected: dict[str, str]) -> Outcome:
    """Three fresh servers: one untraced open-loop phase, then two
    whose ``/metrics`` is scraped after the same phase."""
    tally = outcome.tally
    phases = []
    for name in ("untraced", "traced1", "traced2"):
        server = Server(workdir, name, REPRO_OBS="1")
        try:
            records = open_loop(server, requests, expected)
            scrape = server.metrics() if name != "untraced" else {}
        finally:
            _stop_checked(tally, server)
        lag = _judge_open(tally, records)
        if lag > SPACING:
            _warn_lag(lag, f"{name} phase kept")
        phases.append((records, scrape))
    (untraced, _), (records, scrape), (_, second) = phases
    counters, again = _counters(scrape), _counters(second)
    changed = nonrepeating(counters, again)

    def server_p50(endpoint: str) -> float:
        op = endpoint.rsplit("/", 1)[-1].replace("-", "_")
        return scrape.get(f'serve_request_{op}_seconds{{quantile="0.5"}}',
                          0.0) * 1000.0

    transport, weight = 0.0, 0
    for endpoint in _ENDPOINT_OPS:
        sent = [record.from_send for record in records
                if record.endpoint == endpoint and record.ok]
        if sent:
            transport += len(sent) * (median(sent) * 1000.0
                                      - server_p50(endpoint))
            weight += len(sent)
    count = counters.get
    hits = count("serve_cache_hit", 0)
    misses = count("serve_cache_miss", 0)
    queries = count("implication_cache_hit", 0) \
        + count("implication_cache_miss", 0)
    outcome.layers.update({
        "serve.implication_p50_ms": server_p50("/v1/implication"),
        "serve.xnf_check_p50_ms": server_p50("/v1/xnf-check"),
        "serve.normalize_p50_ms": server_p50("/v1/normalize"),
        "serve.transport_ms": transport / weight if weight else 0.0,
        "serve.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "serve.shed": count("serve_status_429", 0)
        + count("serve_status_503", 0),
        "implication.queries": queries,
        "implication.cache_hit_ratio":
            count("implication_cache_hit", 0) / queries
            if queries else 0.0,
        "implication.fallbacks":
            count("implication_fallback_closure_to_chase", 0),
        "closure.calls": scrape.get("closure_implies_seconds_count", 0.0),
        "closure.ms": scrape.get("closure_implies_seconds_sum", 0.0)
        * 1000.0,
        "closure.iterations": count("closure_iterations", 0),
        "chase.calls": scrape.get("chase_implies_seconds_count", 0.0),
        "chase.ms": scrape.get("chase_implies_seconds_sum", 0.0) * 1000.0,
        "chase.steps": count("chase_steps", 0),
        "chase.branches": count("chase_branches_explored", 0),
        "xnf.candidates": count("xnf_candidates_examined", 0),
        "normalize.rounds": count("normalize_rounds", 0),
        "normalize.steps": sum(value for name, value in counters.items()
                               if name.startswith("normalize_steps_")),
        "trace.overhead_ratio":
            percentile(_latencies(records), 0.5)
            / percentile(_latencies(untraced), 0.5),
        "trace.nonrepeating_counters": len(changed),
    })
    outcome.notes.update(nonrepeating_counters=changed)
    return outcome
