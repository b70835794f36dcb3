"""The ``service-mix`` workload: open-loop traffic against ``repro serve``.

One server process (one shard worker, a fresh store) is started the
way a user starts it.  A fixed pool of small generated specifications
is computed once during set-up, which files their results in the
store.  Then a single asyncio thread in this process sends two
Poisson request streams for ``--seconds``:

* the resubmission lane: exact resubmissions of pool specs, Zipf-skewed
  over the pool, answered from the store;
* the design lane: novel generated specs and distinct near-hit
  deadline tweaks of pool specs, a fixed mix at a fixed rate under a
  quarter of one worker's capacity on the reference host.

At most ``nproc`` requests are in flight, and the design lane holds at
most ``nproc - 1`` of them, so a slot is always left for the
resubmission lane.  Each request is timed from the moment it was due,
so a stall also counts against the requests it delays.  How late each
request left the generator is recorded: the event loop's own lag and,
for a resubmission, any wait for a free slot.  A window whose generator
fell behind its schedule is invalid rather than slow.  Latencies are
reported at reference speed, scaled by the host speed that probes in
the generator's event loop saw within ``SPEED_WINDOW_S`` of each
request.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import json
import os
import pathlib
import random
import re
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from common import (
    HERE,
    ROOT,
    SAMPLE_INTERVAL_S,
    WORK,
    Checker,
    add_counts,
    at_reference_speed,
    check_coverage,
    clock,
    layer_metrics,
    merge_snapshots,
    probe,
    program_env,
    quantile,
    ratio,
    tree_bytes,
    validation_problems,
)

POOL_SIZE = 8
POOL_SEED = 7000
GRAPHS = 3
TASKS_PER_GRAPH = 12
#: Resubmission-lane arrival rate (requests/s); raised for short runs
#: so the lane still yields ``MIN_HITS`` samples.
HIT_RATE = 15.0
MIN_HITS = 150
#: Design-lane arrival rate (requests/s).  It is fixed, not scaled to
#: a capacity measured at start-up: a measured capacity follows the
#: host's speed in that second, and a faster program would be offered
#: more work, so runs and versions would not see the same workload.
#: One worker computes about 7 pool-sized requests a second on a
#: 2-core Intel Xeon VM; at under a quarter of that, the computed
#: latency is mostly the synthesis, not the queue, even when the host
#: slows (at 2.5/s, the spread of ``synth_s`` across runs tripled).
DESIGN_RATE = 1.6
ZIPF_S = 1.1
#: Computed responses re-checked against an in-process ``crusade()``.
RECHECKS = 2
#: p99 generator lateness beyond which a window is invalid.
LATENESS_LIMIT_S = 0.05
#: Windows a run may try, each on a fresh server and store, before it
#: gives up on a generator that keeps falling behind.
WINDOW_ATTEMPTS = 3
#: Host-speed probes within this many seconds of a request set the
#: factor its latency is scaled by.  The generator's CPU is not the one
#: doing the work from one moment to the next, so the probes during a
#: request alone are noise; a whole run's probes miss the host's swings
#: within it.  On eight recorded runs, +-2 s halved the spread of the
#: design-latency median against one factor per run.
SPEED_WINDOW_S = 2.0
#: Server start-ups per run, half before and half after the window.
SETUP_REPEATS = 6
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 120.0

#: Layers the traced server and the traced re-checks must enter.
EXPECTED_SERVER_LAYERS = ("service.admission", "service.respond",
                          "store.read", "digest")
EXPECTED_RECHECK_LAYERS = ("alloc.array", "alloc.evaluate", "sched.build",
                           "timeline", "fingerprint")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def generated_spec(seed: int, name: str):
    """One small generated specification."""
    from repro import GeneratorConfig, generate_spec

    return generate_spec(
        GeneratorConfig(seed=seed, n_graphs=GRAPHS,
                        tasks_per_graph=TASKS_PER_GRAPH),
        name=name,
    )


def pool_specs() -> list:
    """The resubmission pool; the same on every run, so its total
    architecture cost is a fixed reference."""
    return [generated_spec(POOL_SEED + i, "pool%02d" % i)
            for i in range(POOL_SIZE)]


def request_body(spec) -> bytes:
    """The ``crusade-request`` bytes a client posts for ``spec``."""
    from repro.io.service_json import build_request

    return json.dumps(build_request(spec), sort_keys=True).encode("utf-8")


@dataclass
class Request:
    """One scheduled request and, once sent, its outcome."""

    lane: str
    due: float
    body: bytes
    name: str
    kind: str = "hit"
    spec: object = None
    late: float = 0.0
    latency: float = 0.0
    #: ``latency`` at reference speed.
    ref_latency: float = 0.0
    status: int = 0
    payload: bytes = b""
    error: str = ""
    ok: bool = False


def make_schedule(seed: int, seconds: float, pool,
                  pool_bodies) -> List[Request]:
    """Both lanes' arrivals for one run, in due order."""
    from repro.perf.warmstart import tweak_deadline

    rng = random.Random(seed)
    requests: List[Request] = []
    # Zipf ranks follow pool order on every run, so the popular specs,
    # and the result sizes hits return, do not change with the seed.
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    hit_rate = max(HIT_RATE, MIN_HITS / seconds)
    due = rng.expovariate(hit_rate)
    while due < seconds:
        index = rng.choices(range(len(pool)), weights)[0]
        requests.append(Request("hit", due, pool_bodies[index],
                                pool[index].name))
        due += rng.expovariate(hit_rate)
    # Whole passes over every (pool structure, kind) pair in a seeded
    # order, at uniformly random times in the window: a Poisson process
    # conditioned on its count.  Each run is offered exactly the same
    # synthesis work; the seed moves only arrival times and order.
    mix = [(index, kind) for index in range(len(pool))
           for kind in ("novel", "tweak")]
    rng.shuffle(mix)
    passes = max(1, round(DESIGN_RATE * seconds / len(mix)))
    times = sorted(rng.uniform(0.0, seconds)
                   for _ in range(passes * len(mix)))
    for k, due in enumerate(times):
        index, kind = mix[k % len(mix)]
        if kind == "tweak":
            spec = tweak_deadline(pool[index], factor=1.0 + 0.002 * (k + 1))
        else:
            # A pool structure under a new name: every graph name and
            # digest is new to the service, the synthesis effort is not.
            spec = generated_spec(POOL_SEED + index,
                                  "design%d-%03d" % (seed, k))
        requests.append(Request("design", due, request_body(spec),
                                spec.name, kind, spec))
    requests.sort(key=lambda r: r.due)
    return requests


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def _ppid(pid: str) -> Optional[int]:
    try:
        with open("/proc/%s/stat" % pid) as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None


def _vmhwm_kb(pid: int) -> int:
    try:
        with open("/proc/%d/status" % pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """A ``repro serve``-style process: start, measure, stop."""

    def __init__(self, argv: List[str], log_name: str) -> None:
        self.argv = argv
        self.log_path = WORK / log_name
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait until it serves; returns seconds taken."""
        started = clock()
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=self._log,
            env=program_env(), cwd=str(ROOT),
        )
        deadline = started + START_TIMEOUT_S
        while True:
            remaining = deadline - clock()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                raise RuntimeError("server did not start: %s" % self.argv)
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError("server exited during start-up; see %s"
                                   % self.log_path)
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                return clock() - started

    def children(self) -> List[int]:
        """Pids of the server's direct children (its shard workers)."""
        return [int(pid) for pid in os.listdir("/proc")
                if pid.isdigit() and _ppid(pid) == self.proc.pid]

    def peak_rss_mb(self) -> float:
        """Largest peak resident set of the server and its workers."""
        pids = [self.proc.pid] + self.children()
        return max(_vmhwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """Drain through SIGTERM; kill whatever outlives the grace."""
        if self.proc is None:
            return
        workers = self.children()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
        self.proc.stdout.close()
        self._log.close()
        self.proc = None


def cli_server(store: str, log_name: str) -> ServerProcess:
    """The server exactly as a user runs it."""
    return ServerProcess(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--workers", "1", "--cache-dir", store],
        log_name,
    )


def traced_server(store: str, out: str) -> ServerProcess:
    """The same server, started by the benchmark's traced launcher."""
    return ServerProcess(
        [sys.executable, str(HERE / "serve_traced.py"), "--cache-dir",
         store, "--out", out],
        pathlib.Path(out).stem + ".log",
    )


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
async def post(port: int, body: bytes):
    """One ``POST /synthesize`` exchange: ``(status, body bytes)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /synthesize HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n" % len(body) + body
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


async def _drive(port: int, requests: List[Request], slots: int,
                 samples: Optional[list]) -> None:
    loop = asyncio.get_running_loop()
    in_flight = asyncio.Semaphore(slots)
    design_cap = asyncio.Semaphore(max(1, slots - 1))
    no_cap = contextlib.nullcontext()

    async def send(request: Request, due_at: float) -> None:
        try:
            async with design_cap if request.lane == "design" else no_cap:
                async with in_flight:
                    if request.lane == "hit":
                        # A resubmission waiting for a slot is the
                        # generator's delay, not the service's.
                        request.late = loop.time() - due_at
                    request.status, request.payload = await post(
                        port, request.body)
        except (OSError, ValueError, IndexError) as exc:
            request.error = repr(exc)
        request.latency = loop.time() - due_at

    async def sample() -> None:
        while True:
            samples.append((loop.time(), probe()))
            await asyncio.sleep(SAMPLE_INTERVAL_S)

    sampler = loop.create_task(sample()) if samples is not None else None
    start = loop.time() + 0.05
    tasks = []
    for request in requests:
        due_at = start + request.due
        delay = due_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        request.late = loop.time() - due_at
        tasks.append(loop.create_task(send(request, due_at)))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), DRAIN_TIMEOUT_S)
    finally:
        if sampler is not None:
            sampler.cancel()
    if samples:
        stamps = [stamp for stamp, _ in samples]
        durations = [duration for _, duration in samples]
        for request in requests:
            due_at = start + request.due
            first = bisect.bisect_left(stamps, due_at - SPEED_WINDOW_S)
            last = bisect.bisect_right(
                stamps, due_at + request.latency + SPEED_WINDOW_S)
            request.ref_latency = at_reference_speed(
                request.latency, durations[first:last] or durations)


def drive(port: int, requests: List[Request],
          samples: Optional[list] = None) -> None:
    """Send ``requests`` open-loop, at most ``nproc`` in flight.

    When ``samples`` is a list, probe the host's speed into it every
    ``SAMPLE_INTERVAL_S`` meanwhile, as ``(time, duration)``, and set
    each request's ``ref_latency``.
    """
    asyncio.run(_drive(port, requests, len(os.sched_getaffinity(0)),
                       samples))


def decode(request: Request) -> Optional[dict]:
    """The response document, or None when the exchange failed."""
    if request.error or request.status != 200:
        return None
    try:
        return json.loads(request.payload)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# one measured session against one server
# ----------------------------------------------------------------------
class Session:
    """Warm a server's pool, then run one open-loop schedule on it."""

    def __init__(self, server: ServerProcess, checker: Checker) -> None:
        self.server = server
        self.checker = checker
        self.pool = pool_specs()
        self.pool_bodies = [request_body(spec) for spec in self.pool]
        self.pool_bytes: Dict[str, bytes] = {}
        self.cost = 0.0
        self.requests: List[Request] = []
        #: Host-speed probes taken through the timed window.
        self.samples: List[tuple] = []

    def warm(self) -> None:
        """Compute every pool spec once, then resubmit each once."""
        from repro.io.service_json import result_bytes

        computed = [Request("design", 0.0, body, spec.name, "pool")
                    for spec, body in zip(self.pool, self.pool_bodies)]
        for request in computed:
            drive(self.server.port, [request])
            doc = decode(request)
            ok = doc is not None and doc["status"] == "done" \
                and doc["cache_hit"] is False
            self.checker.op(ok, "pool %s was not computed: %s"
                            % (request.name, request.payload[:200]))
            if ok:
                self.pool_bytes[request.name] = result_bytes(doc)
                self.cost += doc["result"]["cost"]
        again = [Request("hit", 0.0, body, spec.name)
                 for spec, body in zip(self.pool, self.pool_bodies)]
        drive(self.server.port, again)
        for request in again:
            self.check_hit(request)

    def check_hit(self, request: Request) -> bool:
        from repro.io.service_json import result_bytes

        doc = decode(request)
        ok = (doc is not None and doc["status"] == "done"
              and doc["cache_hit"] is True
              and result_bytes(doc) == self.pool_bytes.get(request.name))
        self.checker.op(ok, "exact hit of %s: status %d, %s"
                        % (request.name, request.status,
                           request.error or request.payload[:200]))
        return ok

    def run(self, seed: int, seconds: float) -> None:
        """The timed open-loop window, then every response's check."""
        self.requests = make_schedule(seed, seconds, self.pool,
                                      self.pool_bodies)
        drive(self.server.port, self.requests, self.samples)
        for request in self.requests:
            if request.lane == "hit":
                request.ok = self.check_hit(request)
                continue
            doc = decode(request)
            request.ok = (doc is not None and doc["status"] == "done"
                          and doc["cache_hit"] is False
                          and doc["coalesced"] is False)
            self.checker.op(request.ok, "design %s: status %d, %s"
                            % (request.name, request.status,
                               request.error or request.payload[:200]))

    def latencies(self, lane: str, kind: Optional[str] = None,
                  ref: bool = False):
        return [r.ref_latency if ref else r.latency for r in self.requests
                if r.lane == lane and r.ok and kind in (None, r.kind)]

    def at_reference_speed(self, wall: float) -> float:
        """``wall`` rescaled by the window's mean host speed."""
        return at_reference_speed(wall, [d for _, d in self.samples])

    def lateness_p99(self) -> float:
        return quantile([r.late for r in self.requests], 0.99)

    def stats(self) -> dict:
        from repro.service.client import stats

        return stats("127.0.0.1", self.server.port)["counters"]

    def recheck(self, seed: int, recorder=None) -> list:
        """Re-run a seeded sample of computed requests in-process and
        compare bytes; returns the tracers of traced re-checks."""
        from repro import CrusadeConfig, Tracer, crusade
        from repro.io.result_json import result_to_dict
        from repro.io.service_json import result_bytes, strip_run_varying

        computed = [r for r in self.requests if r.lane == "design" and r.ok]
        rng = random.Random(seed)
        tracers = []
        for request in rng.sample(computed, min(RECHECKS, len(computed))):
            if recorder is None:
                result = crusade(request.spec)
            else:
                tracer = Tracer()
                started = clock()
                result = crusade(request.spec, tracer=tracer)
                tracers.append((tracer, clock() - started))
            local = json.dumps(
                strip_run_varying(result_to_dict(result)), sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            problems = validation_problems(request.spec, result,
                                           CrusadeConfig())
            self.checker.op(
                local == result_bytes(decode(request)) and not problems,
                "computed %s differs from an in-process crusade() (%s)"
                % (request.name, problems[:3]),
            )
        return tracers


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _lateness_problem(session: Session) -> Optional[str]:
    late = session.lateness_p99()
    if late > LATENESS_LIMIT_S:
        return ("invalid run: the generator itself fell %.1f ms behind "
                "its schedule at p99 (limit %.0f ms)"
                % (late * 1e3, LATENESS_LIMIT_S * 1e3))
    return None


def valid_session(make_server, seed: int, seconds: float, checker: Checker,
                  measure=None):
    """Warm a fresh server and run the window on it, until a window's
    generator kept to its schedule.

    A window whose generator fell behind is invalid, not slow: it is
    discarded (its checks still count) and run again on a fresh server
    and store from ``make_server(attempt)``.  ``measure(server,
    session)`` runs before the server stops.  Returns ``(session,
    attempt, start-up wall, measured, problem)``; ``problem`` is set
    when every attempt was invalid.
    """
    for attempt in range(WINDOW_ATTEMPTS):
        server = make_server(attempt)
        try:
            start = server.start()
            session = Session(server, checker)
            session.warm()
            session.run(seed, seconds)
            measured = measure(server, session) if measure else None
        finally:
            server.stop()
        problem = _lateness_problem(session)
        if problem is None:
            break
        print("perfbench: %s; window discarded" % problem, file=sys.stderr)
    return session, attempt, start, measured, problem


def _warn_samples(session: Session) -> None:
    for lane, beyond, q in (("hit", 10, 0.90), ("design", 10, 0.50)):
        n = len(session.latencies(lane))
        if n - q * n < beyond:
            print("perfbench: only %d %s samples; fewer than %d lie beyond "
                  "p%d" % (n, lane, beyond, q * 100), file=sys.stderr)


def _start_up_walls(first: int, count: int) -> List[float]:
    """Start-up walls of ``count`` fresh servers, each stopped again."""
    walls = []
    for i in range(first, first + count):
        server = cli_server(str(WORK / ("store-%d" % i)),
                            "server-%d.log" % i)
        try:
            walls.append(server.start())
        finally:
            server.stop()
    return walls


def run_service(args, checker: Checker):
    """``--trace 0``: the end-to-end metrics of one session."""
    half = SETUP_REPEATS // 2
    starts = _start_up_walls(0, half - 1)
    session, _, start, peak, problem = valid_session(
        lambda attempt: cli_server(str(WORK / ("store-w%d" % attempt)),
                                   "server-w%d.log" % attempt),
        args.seed, args.seconds, checker,
        lambda server, session: server.peak_rss_mb(),
    )
    starts.append(start)
    starts += _start_up_walls(half, SETUP_REPEATS - half)
    session.recheck(args.seed)
    _warn_samples(session)
    hits = session.latencies("hit", ref=True)
    values = {
        "setup_s": session.at_reference_speed(statistics.median(starts)),
        "synth_s": interquartile_mean(session.latencies("design", ref=True)),
        "hit_ms": statistics.median(hits) * 1e3,
        "hit_p90_ms": quantile(hits, 0.90) * 1e3,
        "cost_usd": session.cost,
        "peak_rss_mb": peak,
    }
    return values, problem


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``.

    Design latencies mix the pool's cheaper and dearer structures with
    the odd request that queued behind another; the middle half's mean
    is steadier across runs than the median, which lands between the
    structures' clusters, or the mean, which the queued requests pull.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def trace_service(args, checker: Checker):
    """``--trace 1``: an untraced session, then a traced one."""
    from layers import Recorder, preload_modules

    untraced, _, _, _, problem = valid_session(
        lambda attempt: cli_server(str(WORK / ("store-u%d" % attempt)),
                                   "server-u%d.log" % attempt),
        args.seed, args.seconds, checker,
    )
    traced, attempt, _, counters, traced_problem = valid_session(
        lambda attempt: traced_server(
            str(WORK / ("store-t%d" % attempt)),
            str(WORK / ("traced-server-%d.json" % attempt))),
        args.seed, args.seconds, checker,
        lambda server, session: session.stats(),
    )
    store = WORK / ("store-t%d" % attempt)
    launcher = json.loads(
        (WORK / ("traced-server-%d.json" % attempt)).read_text())
    untraced.recheck(args.seed)
    preload_modules()
    recorder = Recorder()
    recorder.install_synthesis()
    rechecks = traced.recheck(args.seed, recorder)

    events = launcher["events"]
    hits = [e for e in events if e.get("outcome") == "cache_hit"]
    computed = [e for e in events if e.get("outcome") == "computed"]
    server_layers = launcher["layers"]
    snapshot = merge_snapshots(server_layers, recorder.snapshot())
    tracer_counts: Dict[str, float] = {}
    timers: Dict[str, float] = {}
    for tracer, _ in rechecks:
        add_counts(tracer_counts, tracer.counters.as_dict())
        add_counts(timers, tracer.timers.as_dict())
    untraced_mean = _mean(r.latency for r in untraced.requests)
    traced_mean = _mean(r.latency for r in traced.requests)
    served = max(1, len(events))
    hit_count = counters.get("service.cache.hit", 0)
    extra = {
        "stage.other.s": sum(wall for _, wall in rechecks)
        - sum(timers.values()),
        "store.write.bytes": tree_bytes(store),
        "service.admission.s": ratio(
            server_layers["self_s"].get("service.admission", 0.0), served),
        "service.respond.s": ratio(
            server_layers["self_s"].get("service.respond", 0.0), served),
        "service.probe.s": _mean(e.get("probe_s", 0.0) for e in hits),
        "service.queue.s": _mean(e.get("queue_wait_s", 0.0)
                                 for e in computed),
        "service.worker.s": _mean(
            e.get("worker_wall_s", 0.0) - e.get("queue_wait_s", 0.0)
            for e in computed),
        "service.cache.hit_ratio": ratio(
            hit_count, hit_count + counters.get("service.cache.miss", 0)),
        "exec.workers.restarts": counters.get("exec.workers.restarts", 0),
        "generator.lateness_p99_ms": traced.lateness_p99() * 1e3,
        "op.cold.s": _mean(untraced.latencies("design", "novel")),
        "op.warm.s": _mean(untraced.latencies("design", "tweak")),
        "trace.wall_s": traced_mean,
        "trace.overhead_s": traced_mean - untraced_mean,
        "trace.overhead_ratio": ratio(traced_mean - untraced_mean,
                                      untraced_mean),
        "trace.unattributed_s": launcher["wall_s"]
        - sum(server_layers["self_s"].values()),
    }
    problem = (
        check_coverage(server_layers, EXPECTED_SERVER_LAYERS, "service-mix")
        or check_coverage(recorder.snapshot(), EXPECTED_RECHECK_LAYERS,
                          "service-mix")
        or problem or traced_problem
    )
    if extra["trace.unattributed_s"] < -1e-6:
        problem = "server self times sum past the traced server's wall time"
    recheck_wall = sum(wall for _, wall in rechecks)
    if sum(recorder.snapshot()["self_s"].values()) > recheck_wall + 1e-6:
        problem = "re-check self times sum past the re-checks' wall time"
    return layer_metrics(snapshot, tracer_counts, timers, extra), problem
