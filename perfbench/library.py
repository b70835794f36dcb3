"""The two library workloads: ``coupled-cold`` and ``decoupled-resubmit``.

Both call ``crusade()`` one operation at a time, in rounds.  A round
is atomic: cold syntheses, then (decoupled only) near-hit
resubmissions, then exact resubmissions.  Each round runs in a fresh
process, and rounds repeat until ``--seconds`` have passed, so one run
is at least one round.  Each operation is timed alone, and untraced
rounds also time it at reference speed (``common.HostSpeed``); result
checks run outside the timed calls.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import (
    HERE,
    WORK,
    Checker,
    HostSpeed,
    add_counts,
    check_coverage,
    clock,
    layer_metrics,
    load_references,
    program_env,
    quantile,
    ratio,
    result_digest,
    tree_bytes,
    validation_problems,
)

SCALE = 0.05
#: B192G and HROST are left out to keep one run well under a minute
#: on a two-core host (see README.md).
COUPLED = ("NGXM",)
DECOUPLED = ("A1TR", "VDRTX", "EST189A")
#: EST189A's tweaked search runs far longer than its cold one, so it
#: gets no near-hit.
NEAR_HIT = ("A1TR", "VDRTX")
TWEAK_FACTORS = (1.05, 1.1)
#: Exact resubmissions per round: enough for ten samples beyond p90.
HITS_PER_ROUND = 100
#: Exact resubmissions are paced, not sent back to back, as a user
#: resubmitting now and then would send them: each finds the caches a
#: pause leaves, and the hits spread over seconds of host time.
HIT_INTERVAL_S = 0.05
#: Hits whose full canonical result is digested (the rest are compared
#: on cost, feasibility and size, which is cheap).
DEEP_HIT_CHECKS = 4

#: Layers each workload exists to exercise (the coverage guard).
EXPECTED_LAYERS = {
    "coupled-cold": ("alloc.array", "alloc.evaluate", "sched.build",
                     "timeline", "prune.floor", "merge", "fingerprint",
                     "digest", "store.read"),
    "decoupled-resubmit": ("alloc.array", "alloc.evaluate", "sched.build",
                           "timeline", "prune.floor", "merge",
                           "fingerprint", "digest", "store.read",
                           "store.read.fragment", "store.write"),
}


def tweak_menu(spec) -> List[Tuple[str, float]]:
    """The near-hit edits a seed may pick for ``spec``: the first or
    the last graph with its deadline loosened.

    A middle graph is left out: A1TR.g003*1.05 sends the repair search
    down a path three times longer than any other edit, which would
    make ``synth_s`` swing with the seed rather than with the code.
    """
    names = sorted(spec.graph_names())
    return [(graph, factor) for graph in (names[0], names[-1])
            for factor in TWEAK_FACTORS]


def reference_key(name: str, tweak: Optional[Tuple[str, float]] = None):
    """Key of an input in ``references.json``."""
    key = "%s@%g" % (name, SCALE)
    if tweak is not None:
        key += "~%s*%g" % tweak
    return key


def check_synthesis(checker: Checker, references: Dict[str, str],
                    what: str, key: str, spec, result, config) -> None:
    """One computed result against its committed digest and both
    validators."""
    reference = references.get(key)
    if reference is None:
        checker.op(False, "%s: no committed reference digest %s"
                   % (what, key))
        return
    digest = result_digest(result)
    problems = validation_problems(spec, result, config)
    checker.op(
        digest == reference and not problems,
        "%s: digest %s (reference %s), validator problems %s"
        % (what, digest[:12], reference[:12], problems[:3]),
    )


def _settle() -> None:
    """Collect garbage and freeze the survivors before timing.

    The timed operation's own collections then scan only what it
    allocates: a full collection's cost would otherwise depend on what
    earlier operations happened to leave on the heap.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


@dataclass
class Plan:
    """One run's inputs, made from the seed."""

    workload: str
    specs: Dict[str, object]
    #: (name, tweak, tweaked spec) near-hit resubmissions.
    warm: List[tuple]
    #: System names of the exact resubmissions, in order.
    hits: List[str]
    #: Indices of the hits whose full result is digested.
    deep_hits: set

    @property
    def writes_store(self) -> bool:
        """Whether the cold runs write through a store (decoupled)."""
        return self.workload == "decoupled-resubmit"


def make_plan(workload: str, seed: int) -> Plan:
    """Build the workload's specifications and seeded choices."""
    from repro.bench.examples import build_example
    from repro.perf.warmstart import tweak_deadline

    rng = random.Random(seed)
    names = COUPLED if workload == "coupled-cold" else DECOUPLED
    specs = {name: build_example(name, SCALE) for name in names}
    warm = []
    if workload == "decoupled-resubmit":
        for name in NEAR_HIT:
            tweak = rng.choice(tweak_menu(specs[name]))
            warm.append((name, tweak, tweak_deadline(specs[name], *tweak)))
    per_system = -(-HITS_PER_ROUND // len(names))
    hits = [name for name in names for _ in range(per_system)]
    rng.shuffle(hits)
    deep = {hits.index(name) for name in names}
    while len(deep) < len(names) + DEEP_HIT_CHECKS:
        deep.add(rng.randrange(len(hits)))
    return Plan(workload, specs, warm, hits, deep)


@dataclass
class Round:
    """Walls and outcomes of one round.

    ``cold``, ``warm`` and ``hit`` hold walls; ``ref`` holds the same
    operations' walls at reference speed (untraced rounds only).
    """

    cold: List[float] = field(default_factory=list)
    warm: List[float] = field(default_factory=list)
    hit: List[float] = field(default_factory=list)
    ref: Dict[str, List[float]] = field(default_factory=lambda: {
        "cold": [], "warm": [], "hit": []})
    cost: float = 0.0
    store_bytes: int = 0
    tracers: list = field(default_factory=list)


class LibraryRunner:
    """Runs one round of a library workload and checks every result."""

    def __init__(self, plan: Plan, checker: Checker, hit_dir: pathlib.Path,
                 recorder=None) -> None:
        from repro import CrusadeConfig

        self.plan = plan
        self.checker = checker
        self.references = load_references()
        self.hit_dir = hit_dir
        self.hit_config = CrusadeConfig(cache_dir=str(hit_dir))
        self.cold_results: Dict[str, object] = {}
        self.recorder = recorder
        self.speed = HostSpeed() if recorder is None else None

    # -- one operation -------------------------------------------------
    def _timed(self, kind: str, spec, config, rnd: Round, settle=True):
        from repro import Tracer, crusade

        if settle:
            _settle()
        if self.recorder is None:
            result, wall, at_ref = self.speed.run(crusade, spec,
                                                  config=config)
            rnd.ref[kind].append(at_ref)
        else:
            tracer = Tracer()
            rnd.tracers.append(tracer)
            start = clock()
            result = crusade(spec, config=config, tracer=tracer)
            wall = clock() - start
        getattr(rnd, kind).append(wall)
        return result

    def _check_synthesis(self, what: str, key: str, spec, result, config):
        check_synthesis(self.checker, self.references, what, key, spec,
                        result, config)

    # -- one round -----------------------------------------------------
    def run_round(self) -> Round:
        """Cold syntheses, near-hits, exact hits; then the checks."""
        from repro import CrusadeConfig

        rnd = Round()
        plan = self.plan
        if plan.writes_store:
            store_dir = WORK / "store"
            store_config = CrusadeConfig(cache_dir=str(store_dir))
            cold_config = hit_config = store_config
        else:
            cold_config, hit_config = CrusadeConfig(), self.hit_config
        for name, spec in plan.specs.items():
            result = self._timed("cold", spec, cold_config, rnd)
            self._check_synthesis("cold %s" % name, reference_key(name),
                                  spec, result, cold_config)
            self.cold_results[name] = result
            rnd.cost += result.cost
        for name, tweak, spec in plan.warm:
            result = self._timed("warm", spec, store_config, rnd)
            self._check_synthesis(
                "near-hit %s %s*%g" % ((name,) + tweak),
                reference_key(name, tweak), spec, result, store_config,
            )
        _settle()
        start = clock()
        for i, name in enumerate(plan.hits):
            pause = start + i * HIT_INTERVAL_S - clock()
            if pause > 0:
                time.sleep(pause)
            result = self._timed("hit", plan.specs[name], hit_config, rnd,
                                 settle=False)
            self._check_hit(i, name, result)
        if plan.writes_store:
            rnd.store_bytes = tree_bytes(store_dir)
        return rnd

    def _check_hit(self, index: int, name: str, result) -> None:
        cold = self.cold_results[name]
        same = (
            result.cost == cold.cost
            and result.feasible == cold.feasible
            and result.n_pes == cold.n_pes
            and len(result.schedule.tasks) == len(cold.schedule.tasks)
        )
        if same and index in self.plan.deep_hits:
            same = result_digest(result) == self.references.get(
                reference_key(name))
        self.checker.op(same, "exact hit %d of %s differs from its cold "
                        "result" % (index, name))


# ----------------------------------------------------------------------
# rounds, each in a fresh process
# ----------------------------------------------------------------------
def round_record(workload: str, seed: int, hit_dir: pathlib.Path,
                 traced: bool) -> dict:
    """Run one round in this process; returns what a round child prints."""
    checker = Checker()
    recorder = None
    if traced:
        from layers import Recorder, preload_modules

        preload_modules()
        recorder = Recorder()
        recorder.install_synthesis()
        recorder.install_store()
    runner = LibraryRunner(make_plan(workload, seed), checker, hit_dir,
                           recorder)
    rnd = runner.run_round()
    record = {
        "cold": rnd.cold, "warm": rnd.warm, "hit": rnd.hit, "ref": rnd.ref,
        "cost": rnd.cost, "store_bytes": rnd.store_bytes,
        "attempted": checker.attempted, "failed": checker.failed,
        "problems": checker.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if recorder is not None:
        counters: Dict[str, float] = {}
        timers: Dict[str, float] = {}
        for tracer in rnd.tracers:
            add_counts(counters, tracer.counters.as_dict())
            add_counts(timers, tracer.timers.as_dict())
        record.update(snapshot=recorder.snapshot(), counters=counters,
                      timers=timers)
    return record


def fill_hit_store(workload: str, seed: int, checker: Checker) -> None:
    """Give ``coupled-cold``'s exact resubmissions a store to hit.

    Its timed cold runs use no store, so before the rounds each system
    is synthesized once, untimed, with the store on: ``crusade()``
    itself files the result the rounds' resubmissions then read.
    """
    from repro import CrusadeConfig, crusade

    if workload != "coupled-cold":
        return
    config = CrusadeConfig(cache_dir=str(WORK / "hits"))
    references = load_references()
    for name, spec in make_plan(workload, seed).specs.items():
        check_synthesis(checker, references, "store fill %s" % name,
                        reference_key(name), spec,
                        crusade(spec, config=config), config)


def _spawn_round(workload: str, seed: int, traced: bool,
                 checker: Checker) -> dict:
    """One round in a fresh process, so no round inherits the heap,
    allocator state or caches an earlier round left behind."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced)),
         "--round-child", str(WORK / "hits")],
        env=program_env(), stdout=subprocess.PIPE, check=True,
        timeout=170,
    )
    record = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
    checker.absorb(record)
    return record


def _synth(record: dict) -> float:
    """Mean wall at reference speed of a round's computed syntheses."""
    return statistics.fmean(record["ref"]["cold"] + record["ref"]["warm"])


def run_rounds(workload: str, seed: int, seconds: float,
               checker: Checker) -> Dict[str, float]:
    """Whole rounds until ``seconds`` have passed (at least one); the
    end-to-end metrics apart from ``setup_s``."""
    fill_hit_store(workload, seed, checker)
    records: List[dict] = []
    started = clock()
    while not records or clock() - started < seconds:
        records.append(_spawn_round(workload, seed, False, checker))
    hits = [wall for record in records for wall in record["ref"]["hit"]]
    return {
        "synth_s": statistics.median(_synth(r) for r in records),
        "hit_ms": statistics.median(hits) * 1e3,
        "hit_p90_ms": quantile(hits, 0.90) * 1e3,
        "cost_usd": records[0]["cost"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }


def _op_wall(record: dict) -> float:
    return sum(record["cold"]) + sum(record["warm"]) + sum(record["hit"])


def trace_rounds(workload: str, seed: int, checker: Checker):
    """One untraced round, then the same round traced, each in its own
    process.

    Returns ``(per-layer metrics, problem)``; ``problem`` names a
    coverage-guard or accounting failure.  The traced wall is the sum
    of the traced ``crusade()`` calls, so ``trace.unattributed_s`` is
    the time inside them that no wrapped layer accounts for.
    """
    fill_hit_store(workload, seed, checker)
    untraced = _spawn_round(workload, seed, False, checker)
    traced = _spawn_round(workload, seed, True, checker)
    snapshot = traced["snapshot"]
    timers = traced["timers"]
    wall = _op_wall(traced)
    base = _op_wall(untraced)
    self_total = sum(snapshot["self_s"].values())
    extra = {
        "stage.other.s": sum(traced["cold"]) + sum(traced["warm"])
        - sum(timers.values()),
        "store.write.bytes": traced["store_bytes"],
        "op.cold.s": statistics.fmean(untraced["cold"]),
        "op.warm.s": statistics.fmean(untraced["warm"])
        if untraced["warm"] else 0,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - base,
        "trace.overhead_ratio": ratio(wall - base, base),
        "trace.unattributed_s": wall - self_total,
    }
    problem = check_coverage(snapshot, EXPECTED_LAYERS[workload], workload)
    if self_total > wall * (1 + 1e-9) + 1e-6:
        problem = "self times sum to %.6f s, past the traced wall %.6f s" % (
            self_total, wall)
    return layer_metrics(snapshot, traced["counters"], timers, extra), problem
