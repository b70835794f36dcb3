"""Shared pieces of the benchmark: paths, statistics, checks, metrics."""

from __future__ import annotations

import array
import hashlib
import json
import os
import pathlib
import signal
import statistics
import sys
import time
from typing import Dict, Iterable, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Output of traced runs, inside the checkout.
OUT = ROOT / ".perfbench"
#: This run's scratch space; removed when the run ends.
WORK = OUT / ("run-%d" % os.getpid())
REFERENCES = HERE / "references.json"

clock = time.perf_counter

#: Pipeline stages in execution order (the Tracer's phase names).
STAGES = ("preprocess", "clustering", "allocation", "full_check", "repair",
          "merge", "interface")

#: Every per-layer metric with its unit, in reporting order.
PER_LAYER = (
    [("stage.%s.s" % stage, "s") for stage in STAGES]
    + [
        ("stage.other.s", "s"),
        ("alloc.array.calls", "count"),
        ("alloc.array.s", "s"),
        ("alloc.options", "count"),
        ("alloc.evaluate.calls", "count"),
        ("alloc.evaluate.s", "s"),
        ("engine.fragment.hits", "count"),
        ("engine.fragment.misses", "count"),
        ("engine.fragment.hit_ratio", "ratio"),
        ("sched.build.calls", "count"),
        ("sched.build.s", "s"),
        ("sched.build.s_per_call", "s"),
        ("sched.abort.ratio", "ratio"),
        ("timeline.ops", "count"),
        ("timeline.s", "s"),
        ("prune.floor.calls", "count"),
        ("prune.floor.s", "s"),
        ("prune.cut.ratio", "ratio"),
        ("merge.s", "s"),
        ("merge.candidates", "count"),
        ("merge.accept.ratio", "ratio"),
        ("fingerprint.calls", "count"),
        ("fingerprint.s", "s"),
        ("digest.s", "s"),
        ("store.read.calls", "count"),
        ("store.read.s", "s"),
        ("store.write.calls", "count"),
        ("store.write.s", "s"),
        ("store.write.bytes", "B"),
        ("store.preload.useful_ratio", "ratio"),
        ("service.admission.s", "s"),
        ("service.probe.s", "s"),
        ("service.respond.s", "s"),
        ("service.queue.s", "s"),
        ("service.worker.s", "s"),
        ("service.cache.hit_ratio", "ratio"),
        ("exec.workers.restarts", "count"),
        ("generator.lateness_p99_ms", "ms"),
        ("op.cold.s", "s"),
        ("op.warm.s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_s", "s"),
    ]
)


#: One host-speed probe: a fixed slice of interpreter work.
PROBE_LOOPS = 1200
#: The probe's duration at the reference speed (the fast phase of a
#: 2-core Intel Xeon VM).  Timings "at reference speed" are in seconds
#: of a host running at that speed.
PROBE_REF_S = 0.00022
#: How often a probe samples the host while an operation runs.
SAMPLE_INTERVAL_S = 0.02


class _Cell:
    """A node of the probe's fixed object ring."""

    __slots__ = ("value", "weight", "next")

    def step(self, acc: int) -> int:
        return (acc + self.value * self.weight) & 255


_RING = [_Cell() for _ in range(64)]
for _k, _cell in enumerate(_RING):
    _cell.value, _cell.weight = _k, _k % 7 + 1
    _cell.next = _RING[(_k * 5 + 1) % 64]
_TABLE = list(range(256))
_INDEX = {i: i for i in range(256)}


def probe() -> float:
    """Wall time of one fixed slice of interpreter work.

    Method calls, slot reads and writes, and list and dict access, as
    in the program's inner loops.  It allocates no container, so it
    starts no garbage collection in the program it interrupts.
    """
    cell = _RING[0]
    table = _TABLE
    index = _INDEX
    acc = 0
    start = clock()
    for i in range(PROBE_LOOPS):
        cell = cell.next
        acc = cell.step(acc)
        if acc > 128:
            cell.value = (acc ^ i) & 255
        table[acc] = (index.get(acc, 0) + 1) & 255
    return clock() - start


def at_reference_speed(wall: float, samples) -> float:
    """``wall`` rescaled to the reference speed.

    ``samples`` are probe durations taken at even intervals while the
    wall elapsed.  The host's speed changes from second to second (on
    a shared VM by up to 2x), so a wall alone measures the host as much
    as the program: the work done is the wall times the mean of
    ``PROBE_REF_S / sample``.
    """
    return wall * PROBE_REF_S * statistics.fmean(1.0 / p for p in samples)


class HostSpeed:
    """Times operations and samples the host's speed while they run.

    A probe runs just before and just after each operation and, from a
    ``SIGALRM`` timer, every ``SAMPLE_INTERVAL_S`` inside it; the time
    the probes inside took is taken out of the operation's wall.
    """

    def __init__(self) -> None:
        self.samples = array.array("d")
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def run(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``; returns ``(result, wall, wall at
        reference speed)``."""
        first = len(self.samples)
        self.samples.append(probe())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = clock() - start
        wall -= sum(self.samples[first + 1:])
        self.samples.append(probe())
        return result, wall, at_reference_speed(wall, self.samples[first:])


def prepare_path() -> bool:
    """Put the program's sources on ``sys.path``; False when absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def quantile(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile (inclusive method) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def result_digest(result) -> str:
    """SHA-256 of a result's canonical JSON (timing and stats removed)."""
    from repro.io.result_json import canonical_result_json

    return hashlib.sha256(
        canonical_result_json(result).encode("utf-8")
    ).hexdigest()


def validation_problems(spec, result, config) -> List[str]:
    """Violations the independent schedule and architecture validators
    find in ``result``."""
    from repro.arch.validate import validate_architecture
    from repro.graph.association import AssociationArray
    from repro.sched.validate import validate_schedule

    assoc = AssociationArray(
        spec, max_explicit_copies=config.max_explicit_copies
    )
    problems = list(validate_schedule(
        result.schedule, spec, assoc, result.clustering, result.arch
    ).violations)
    problems += validate_architecture(
        result.arch, result.clustering, spec=spec, policy=config.delay_policy
    ).violations
    return problems


def load_references() -> Dict[str, str]:
    """Committed reference digests, keyed by input name."""
    return json.loads(REFERENCES.read_text())


def tree_bytes(path: pathlib.Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Checker:
    """Counts operations and every wrong output, loudly."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        """One operation, counted as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fail(what)

    def absorb(self, record: dict) -> None:
        """Add the counts and problems a child process reported."""
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        self.problems += record["problems"]

    def fail(self, what: str) -> None:
        """Record a wrong output."""
        self.problems.append(what)
        print("perfbench: WRONG: %s" % what, file=sys.stderr, flush=True)

    @property
    def correct(self) -> bool:
        """Whether every check passed."""
        return not self.problems


def layer_metrics(snapshot: dict, counters: Dict[str, int],
                  timers: Dict[str, float], extra: Dict[str, float]) -> dict:
    """Every per-layer metric from spans, tracer counters and timers.

    ``snapshot`` is a :meth:`layers.Recorder.snapshot` (possibly merged
    from several processes); ``extra`` carries metrics measured
    elsewhere and overrides.  Layers a workload never enters read 0.
    """
    calls = snapshot["calls"]
    self_s = snapshot["self_s"]

    def n(layer: str) -> int:
        return calls.get(layer, 0)

    def s(layer: str) -> float:
        return self_s.get(layer, 0.0)

    count = counters.get
    values = {"stage.%s.s" % stage: timers.get(stage, 0.0) for stage in STAGES}
    builds = n("sched.build")
    hits = count("perf.schedule.hits", 0)
    misses = count("perf.schedule.misses", 0)
    cut = count("prune.cut", 0)
    values.update({
        "alloc.array.calls": n("alloc.array"),
        "alloc.array.s": s("alloc.array"),
        "alloc.options": snapshot["items"].get("alloc.array", 0),
        "alloc.evaluate.calls": n("alloc.evaluate"),
        "alloc.evaluate.s": s("alloc.evaluate"),
        "engine.fragment.hits": hits,
        "engine.fragment.misses": misses,
        "engine.fragment.hit_ratio": ratio(hits, hits + misses),
        "sched.build.calls": builds,
        "sched.build.s": s("sched.build"),
        "sched.build.s_per_call": ratio(s("sched.build"), builds),
        "sched.abort.ratio": ratio(
            snapshot["aborts"].get("sched.build", 0), builds),
        "timeline.ops": n("timeline"),
        "timeline.s": s("timeline"),
        "prune.floor.calls": n("prune.floor"),
        "prune.floor.s": s("prune.floor"),
        "prune.cut.ratio": ratio(cut, cut + count("prune.kept", 0)),
        "merge.s": s("merge"),
        "merge.candidates": count("merge.candidates", 0),
        "merge.accept.ratio": ratio(count("merge.accepts", 0),
                                    count("merge.candidates", 0)),
        "fingerprint.calls": n("fingerprint"),
        "fingerprint.s": s("fingerprint"),
        "digest.s": s("digest"),
        "store.read.calls": n("store.read") + n("store.read.fragment"),
        "store.read.s": s("store.read") + s("store.read.fragment"),
        "store.write.calls": n("store.write"),
        "store.write.s": s("store.write"),
        "store.preload.useful_ratio": ratio(
            count("perf.store.fragments_preloaded", 0),
            n("store.read.fragment")),
    })
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}


def merge_snapshots(*snapshots: dict) -> dict:
    """Sum several recorder snapshots (one per process) layer-wise."""
    merged = {"calls": {}, "self_s": {}, "aborts": {}, "items": {}}
    for snap in snapshots:
        for table, values in snap.items():
            for layer, value in values.items():
                merged[table][layer] = merged[table].get(layer, 0) + value
    return merged


def add_counts(total: Dict[str, float], more: Dict[str, float]) -> None:
    """Accumulate one tracer's counters or timers into ``total``."""
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


def check_coverage(snapshot: dict, expected: Iterable[str],
                   workload: str) -> Optional[str]:
    """The wrapper coverage guard: every layer this workload exists to
    exercise must have seen a call, or a patch missed a binding and
    the layer would silently read as free."""
    missing = [layer for layer in expected
               if snapshot["calls"].get(layer, 0) < 1]
    if missing:
        return ("wrappers saw no calls on %s for: %s (a caller binds a "
                "name the patch did not reach)" % (workload,
                                                   ", ".join(missing)))
    return None
