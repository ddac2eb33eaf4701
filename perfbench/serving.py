"""The serving workloads: ``interactive`` and ``script-unique``.

Both run ``repro serve ARTIFACT --frontend async --workers 0`` with the
default batching flags and drive it open-loop over two pipelined
keep-alive connections (see :mod:`loadgen`). A run is:

1. **set-up** — spawn the server ``SETUP_SPAWNS`` times; each time, the
   interval from spawn to the first 200 from ``POST /insights`` (the
   inference plan compiles lazily inside that request). ``setup_s`` is
   the median. The last server stays up for the rest of the run.
2. **warm-up** (not measured) — ``interactive`` pushes a distinct working
   set larger than the 8192-entry insight memo through the server;
   ``script-unique`` sends a few requests so every lazy path has run.
   Then the *cut*: ``GET /stats`` and ``GET /metrics`` are scraped, and a
   traced server gets SIGUSR1 so its trace marks the same point. Server
   counters and layer numbers cover only the traffic after the cut.
3. **reference segments** — three segments of ``ref_segment * seconds``
   open loop at the workload's fixed reference rate, below the knee: one
   before the ladder, one between its search and its bisection, one
   after it. A segment whose load generator fell behind is made again
   (at most ``REF_ATTEMPTS`` tries) and never counts; the run fails only
   when no segment at all was valid. Latency is timed from each
   request's due time. ``p50_ms`` is the best (lowest) segment's: on a
   shared host interference only ever adds latency, and segments seconds
   apart rarely all meet it.
4. **ladder** — fixed offered-rate rungs ``ladder_base * LADDER_RATIO**k``.
   A rung holds when p99 <= the workload's SLO, >= 99% of requests
   succeed, the backlog does not grow and the generator kept up; a rung
   that fails is retried once. From the reference rung (upward when the
   first reference segment or the retry of its rung held, else downward)
   the search steps ``LADDER_STEP`` rungs at a time until the outcome
   flips, then bisects.
   ``throughput_per_s`` is the measured completion rate (200s per
   second) of the highest rung that held.
5. ``GET /stats`` and ``GET /metrics`` are scraped again (the details
   hold the difference to the cut), the server's peak RSS (``VmHWM``)
   is read, and the server is stopped with SIGINT.
6. **correctness** — every 200 body must equal, byte for byte, the JSON
   encoding of in-process ``QueryFacilitator.insights_batch`` results
   for the same statements. Every request is checked when the run sent
   at most ``CHECK_STATEMENTS`` statements, else every k-th request.
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import loadgen
from common import (
    CUT_MARKER,
    ROOT,
    BenchError,
    child_env,
    child_setup,
    median,
    repro_cmd,
)


@dataclass(frozen=True)
class ServingShape:
    #: statements per request
    batch: int
    #: share of requests that repeat an earlier statement verbatim
    repeat_share: float
    #: distinct statements pushed through before measuring
    warm_statements: int
    #: fixed reference rate (requests/s) for p50
    ref_rate: float
    #: one reference segment, as a share of --seconds (long enough for
    #: a few hundred requests at ``ref_rate``)
    ref_segment: float
    #: p99 latency limit (ms) a ladder rung must meet
    slo_p99_ms: float
    ladder_base: float


LADDER_RATIO = 1.06
LADDER_STEP = 4
#: one ladder probe, as a share of --seconds
PROBE = 0.08
#: ~2 decades above each ladder's base
MAX_RUNG = 80
SETUP_SPAWNS = 5
#: tries per reference segment while the generator falls behind
REF_ATTEMPTS = 3
#: statements re-scored in-process for the correctness check, at most
CHECK_STATEMENTS = 16384

SHAPES = {
    "interactive": ServingShape(
        batch=1,
        repeat_share=0.7,
        warm_statements=10000,
        ref_rate=300.0,
        ref_segment=0.15,
        slo_p99_ms=50.0,
        ladder_base=100.0,
    ),
    "script-unique": ServingShape(
        batch=32,
        repeat_share=0.0,
        warm_statements=0,
        ref_rate=80.0,
        ref_segment=0.3,
        slo_p99_ms=50.0,
        ladder_base=10.0,
    ),
}

_BANNER = re.compile(r"http://([0-9.]+):(\d+)")


class Server:
    """One ``repro serve`` process (optionally under the tracing launcher)."""

    def __init__(self, artifact: Path, trace_out: Path | None = None):
        args = [
            "serve", str(artifact),
            "--frontend", "async", "--workers", "0", "--port", "0",
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_cmd(args, trace_out),
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            preexec_fn=child_setup,
        )
        self.lines: list[str] = []
        self._port = threading.Event()
        self._cut = threading.Event()
        self.address = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if line.startswith(CUT_MARKER):
                self._cut.set()
            match = _BANNER.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._port.set()

    def wait_ready(self, probe: bytes, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first 200 answer to ``probe``."""
        if not self._port.wait(timeout):
            self.stop()
            raise BenchError("server printed no banner:\n" + "\n".join(self.lines))
        while True:
            try:
                status, _ = loadgen.http_post(self.address, probe)
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - self.started
            if time.perf_counter() - self.started > timeout:
                self.stop()
                raise BenchError(f"server never answered 200 (last {status})")
            time.sleep(0.005)

    def cut_trace(self, timeout: float = 10.0) -> None:
        """Mark the start of the measured part in a traced server's trace
        (SIGUSR1 to the launcher) and wait until it has. The handler runs
        on the server's main thread, which wakes on network activity, so
        the wait pokes ``GET /healthz``."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not self._cut.wait(0.01):
            if time.perf_counter() > deadline:
                raise BenchError("the traced server did not mark the trace cut")
            loadgen.http_get(self.address, "/healthz")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def _body(statements: list[str]) -> bytes:
    if len(statements) == 1:
        return json.dumps({"statement": statements[0]}).encode()
    return json.dumps({"statements": statements}).encode()


class RequestStream:
    """The seeded request sequence of one run.

    ``interactive``: each request is one statement. With probability
    ``repeat_share`` it repeats a statement of the working set (every
    statement sent so far) verbatim: a template drawn with the base log's
    hit counts, then one of that template's statements already sent.
    Otherwise it is a fresh statement.
    ``script-unique``: each request carries ``batch`` fresh statements.
    """

    def __init__(self, shape: ServingShape, source: inputs.StatementSource, seed: int):
        self.shape = shape
        self.source = source
        self.rng = random.Random(seed * 7919 + 3)
        #: template index -> statements of the working set
        self.working: dict[int, list[str]] = {}

    def _fresh(self) -> str:
        template, stmt = self.source.draw()
        self.working.setdefault(template, []).append(stmt)
        return stmt

    def warm_set(self) -> list[str]:
        return [self._fresh() for _ in range(self.shape.warm_statements)]

    def next_request(self) -> list[str]:
        shape = self.shape
        if shape.batch > 1:
            return [self.source.fresh() for _ in range(shape.batch)]
        if self.working and self.rng.random() < shape.repeat_share:
            while True:
                sent = self.working.get(self.source.template(self.rng))
                if sent:
                    return [self.rng.choice(sent)]
        return [self._fresh()]


def _scrape(address) -> dict:
    status, body = loadgen.http_get(address, "/stats")
    stats = json.loads(body) if status == 200 else {}
    status, body = loadgen.http_get(address, "/metrics")
    stages: dict[str, dict] = {}
    if status == 200:
        pattern = re.compile(
            r'^repro_stage_seconds_(sum|count)\{stage="([^"]+)"\} (\S+)$'
        )
        for line in body.decode().splitlines():
            match = pattern.match(line)
            if match:
                kind, stage, value = match.groups()
                stages.setdefault(stage, {})[kind] = float(value)
    return {"stats": stats, "stage_seconds": stages}


def _since(before: dict, after: dict) -> dict:
    """Server counters and stage times of the traffic between two scrapes."""
    old, new = before["stats"], after["stats"]
    stats: dict = {}
    if old and new:
        stats = {k: new[k] - old[k] for k in ("requests", "statements", "batches")}
        stats["mean_batch_size"] = (
            stats["statements"] / stats["batches"] if stats["batches"] else 0.0
        )
        for cache in ("insight_cache", "pipeline"):
            hits = new[cache]["hits"] - old[cache]["hits"]
            misses = new[cache]["misses"] - old[cache]["misses"]
            stats[cache] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
    stages = {
        stage: {
            kind: value - before["stage_seconds"].get(stage, {}).get(kind, 0.0)
            for kind, value in entry.items()
        }
        for stage, entry in after["stage_seconds"].items()
    }
    return {"stats": stats, "stage_seconds": stages}


class ServingRun:
    """Everything one serving run measured."""

    def __init__(self):
        self.requests: list[list[str]] = []
        self.bodies: list = []
        self.phases: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def record(self, reqs: list[list[str]], result: loadgen.PhaseResult, label: str):
        self.requests.extend(reqs)
        self.bodies.extend(result.bodies)
        self.attempted += result.attempted
        self.failed += result.failed
        self.phases.append({"phase": label, **result.summary()})


def _phase(run: ServingRun, stream: RequestStream, server: Server, rate: float,
           seconds: float, label: str) -> loadgen.PhaseResult:
    n = max(int(rate * seconds), 1)
    reqs = [stream.next_request() for _ in range(n)]
    result = loadgen.run_phase(server.address, [_body(r) for r in reqs], rate)
    run.record(reqs, result, label)
    return result


def _sustained(result: loadgen.PhaseResult, shape: ServingShape) -> bool:
    if not result.generator_ok:
        return False
    if result.failed > 0.01 * result.attempted:
        return False
    if result.latency_q(0.99) > shape.slo_p99_ms:
        return False
    lat = result.latencies_ms
    quarter = max(len(lat) // 4, 1)
    first = [x for x in lat[:quarter] if x is not None]
    last = [x for x in lat[-quarter:] if x is not None]
    if not first or not last:
        return False
    # a growing backlog shows as the last quarter waiting longer
    return median(last) - median(first) <= shape.slo_p99_ms / 2


def _rung_rate(shape: ServingShape, k: int) -> float:
    return shape.ladder_base * LADDER_RATIO**k


def _ref_rung(shape: ServingShape) -> int:
    k = 0
    while _rung_rate(shape, k + 1) <= shape.ref_rate * 1.0001:
        k += 1
    return k


def measure(workload: str, seed: int, seconds: float, trace_out: Path | None):
    """Run one serving workload; returns ``(metrics, details, run)``."""
    shape = SHAPES[workload]
    paths = inputs.fixtures()
    source = inputs.StatementSource(paths["base_log"], seed)
    stream = RequestStream(shape, source, seed)
    probe = _body(["SELECT objID FROM PhotoObj WHERE objID = 1"])

    clock = {"start": time.perf_counter()}
    setups: list[float] = []
    server = None
    for i in range(SETUP_SPAWNS):
        last = i == SETUP_SPAWNS - 1
        candidate = Server(paths["artifact"], trace_out if last else None)
        setups.append(candidate.wait_ready(probe))
        if last:
            server = candidate
        else:
            candidate.stop()
    run = ServingRun()
    clock["setup"] = time.perf_counter()
    try:
        warm = stream.warm_set()
        if not warm:
            warm = [stream.next_request() for _ in range(8)]
            warm_bodies = [_body(r) for r in warm]
        else:
            warm_bodies = [_body(warm[i : i + 64]) for i in range(0, len(warm), 64)]
        if loadgen.closed_batches(server.address, warm_bodies) != len(warm_bodies):
            raise BenchError("warm-up requests failed")
        if trace_out is not None:
            server.cut_trace()
        at_cut = _scrape(server.address)

        clock["warm"] = time.perf_counter()
        refs: list[loadgen.PhaseResult] = []

        segment = 0

        def reference() -> loadgen.PhaseResult:
            """One reference segment. A segment whose generator fell
            behind is not valid: it is made again, up to REF_ATTEMPTS
            times in all, and left out of p50 if none is valid."""
            nonlocal segment
            segment += 1
            for attempt in range(REF_ATTEMPTS):
                result = _phase(
                    run, stream, server, shape.ref_rate, shape.ref_segment * seconds,
                    f"reference{segment}" + (f"-retry{attempt}" if attempt else ""),
                )
                if result.generator_ok:
                    refs.append(result)
                    break
            return result

        def holds(k: int) -> loadgen.PhaseResult | None:
            """Probe rung ``k``; a failed rung is retried once, so one
            burst of host interference cannot fail it."""
            for attempt in range(2):
                result = _phase(
                    run, stream, server, _rung_rate(shape, k),
                    PROBE * seconds, f"rung{k}" + ("-retry" if attempt else ""),
                )
                if _sustained(result, shape):
                    return result
            return None

        # ladder: the reference rung decides the direction, with the same
        # one retry as any rung when the first reference segment fails.
        # Step LADDER_STEP rungs at a time away from it until the outcome
        # flips, then bisect between the highest rung that held and the
        # lowest that failed
        first = reference()
        ref_rung = _ref_rung(shape)
        if not _sustained(first, shape):
            first = _phase(
                run, stream, server, _rung_rate(shape, ref_rung),
                PROBE * seconds, f"rung{ref_rung}-retry",
            )
        if _sustained(first, shape):
            lo, hi, best = ref_rung, None, first
        else:
            lo, hi, best = None, ref_rung, None
        while lo is None or hi is None or hi - lo > 1:
            if hi is None:
                k = min(lo + LADDER_STEP, MAX_RUNG)
            elif lo is None:
                k = max(hi - LADDER_STEP, 0)
            else:
                k = (lo + hi) // 2
            if k in (lo, hi):  # the top rung held or the bottom one failed
                raise BenchError(f"{workload}: no rung of the ladder fits")
            bracketed = lo is not None and hi is not None
            result = holds(k)
            if result is not None:
                lo, best = k, result
            else:
                hi = k
            if not bracketed and lo is not None and hi is not None:
                reference()  # the second segment: between search and bisection
        reference()
        if not refs:
            raise BenchError("load generator fell behind in every reference segment")
        # the measured completion rate at the highest rung that held
        sustained = best.completion_rate
        clock["measured"] = time.perf_counter()
        scraped = _since(at_cut, _scrape(server.address))
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    server_wall = time.perf_counter() - server.started

    clock["stopped"] = time.perf_counter()
    # every request when the run sent few enough statements to re-score
    # quickly, else an evenly spaced subset of requests
    stride = -(-sum(len(r) for r in run.requests) // CHECK_STATEMENTS)
    checked = range(0, len(run.requests), max(stride, 1))
    mismatches = check_bodies(
        paths["artifact"],
        [run.requests[i] for i in checked],
        [run.bodies[i] for i in checked],
    )
    clock["checked"] = time.perf_counter()
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (sustained, "1/s"),
        "p50_ms": (min(r.latency_q(0.5) for r in refs), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    details = {
        "sustained_rps": sustained,
        "sustained_rung_rate": _rung_rate(shape, lo),
        "ladder_ratio": LADDER_RATIO,
        "slo_p99_ms": shape.slo_p99_ms,
        "reference_segments": [r.summary() for r in refs],
        "setup_runs_s": setups,
        "phases": run.phases,
        "server": scraped["stats"],
        "stage_seconds": scraped["stage_seconds"],
        "server_wall_s": server_wall,
        "timeline_s": {k: v - clock["start"] for k, v in clock.items()},
        "mismatched_bodies": mismatches,
        "checked_requests": len(checked),
        "statements_sent": sum(len(r) for r in run.requests),
        "distinct_statements": len({s for r in run.requests for s in r}),
    }
    return metrics, details, run


def check_bodies(artifact: Path, requests: list[list[str]], bodies: list) -> int:
    """How many 200 bodies differ from the in-process reference encoding.

    The reference is ``insights_batch`` over the run's distinct
    statements, in-process, from the same artifact; each body must equal
    ``json.dumps({"insights": [...], "generation": 1})``.
    """
    from repro.core.facilitator import QueryFacilitator

    facilitator = QueryFacilitator.load(artifact, mmap=True)
    distinct = list(dict.fromkeys(s for r in requests for s in r))
    expected: dict[str, dict] = {}
    for i in range(0, len(distinct), 4096):
        chunk = distinct[i : i + 4096]
        for stmt, insight in zip(chunk, facilitator.insights_batch(chunk)):
            expected[stmt] = insight.to_dict()
    bad = 0
    for statements, body in zip(requests, bodies):
        if body is None:
            continue  # failed requests are counted as failed, not here
        want = json.dumps(
            {"insights": [expected[s] for s in statements], "generation": 1}
        ).encode()
        bad += body != want
    return bad
