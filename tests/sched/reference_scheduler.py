"""The reference list scheduler: the oracle for ``build_schedule``.

:func:`repro.sched.scheduler.build_schedule` is the one production
scheduling loop.  It caches everything that does not change between
runs (:class:`repro.perf.fastsched.SchedulerContext`) and schedules
onto the production timeline pair.  :func:`build_reference_schedule`
is the same list scheduler without any of that: every run re-derives
the instance bookkeeping from the specification, resolves routes with
``Architecture.find_link_between``, traces every decision as it is
made, and places work on the linear reference timelines
(:class:`~repro.sched.timeline.IntervalTimeline`,
:class:`~repro.sched.timeline.PpeModeTimeline`).  Every decision
input -- heap keys, iteration orders, epsilon comparisons, tie-breaks
-- is the one Section 5 prescribes, so the two loops must produce
byte-identical schedules; ``tests/perf/test_fastsched.py`` compares
them schedule by schedule.

:class:`ReferenceEngine` lifts the comparison to whole syntheses: a
test double for :class:`repro.perf.engine.IncrementalEngine` whose
``evaluate`` is the reference loop plus
:func:`~repro.sched.finish_time.evaluate_deadlines`, with no caching
at all.  ``crusade(spec, engine=ReferenceEngine())`` must be
byte-identical to ``crusade(spec)``; the equivalence suites in
``tests/perf`` check exactly that, and
``benchmarks/bench_inner_loop.py`` times it as its from-scratch leg.

:func:`exhaustive` lifts it once more, to the search: production
synthesis always runs two pure-dominance cuts, the admissible prune
floors and incumbent-driven bound aborts, and inside an
``exhaustive()`` block either or both are off, so every candidate is
scheduled to completion.  The identity suites, CI's dominance-identity
job and the benchmark compare the default search against it.

This module imports only the standard library and ``repro``: the
benchmark imports it in an environment without the test
dependencies.
"""

from __future__ import annotations

import functools
import heapq
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

from repro.errors import AllocationError, SchedulingError
from repro.arch.pe_instance import PEInstance
from repro.perf.engine import IncrementalEngine
from repro.perf.prune import CandidatePruner, RepairBound
from repro.reconfig.reboot import default_boot_time
from repro.resources.pe import PEKind, ProcessorType
from repro.sched.finish_time import (
    _OVERLOAD_TOLERANCE,
    DeadlineReport,
    evaluate_deadlines,
)
from repro.sched.scheduler import (
    Schedule,
    ScheduleAbort,
    ScheduledEdge,
    ScheduledTask,
    ScheduleRequest,
    TaskKey,
)
from repro.sched.timeline import IntervalTimeline, PpeModeTimeline
from repro.units import TIME_EPS


def build_reference_schedule(request: ScheduleRequest) -> Schedule:
    """Run the reference list scheduler over all explicit copies.

    Same contract as :func:`repro.sched.scheduler.build_schedule`
    (including ``graphs``, ``bound`` and ``bound_base``); the
    request's ``context`` and ``fingerprint`` are ignored: devices are
    read through ``PEInstance.modes_of_cluster`` and the boot-time
    function on every decision.  The returned schedule carries
    no ``lateness``/``demand`` by-products -- callers recompute them
    with :mod:`repro.sched.finish_time`.
    """
    schedule = Schedule()
    spec = request.spec
    boot_time_fn = request.boot_time_fn or default_boot_time
    tracer = request.tracer
    tracer.incr("sched.runs")

    # Bounded-search bookkeeping (only when a bound is supplied): the
    # copy-0 demand per serial resource and the absolute deadline per
    # deadline-task instance are tracked inline, mirroring exactly what
    # finish-time evaluation would recompute afterwards, so the abort
    # trigger (violations > bound[0]) is a pure-dominance test.
    bound = request.bound
    if bound is not None:
        bound_limit = bound[0]
        violations = request.bound_base
        capacity = request.assoc.hyperperiod
        crossed: set = set()
        bound_demand: Dict[str, float] = {}
        bound_ncopies: Dict[str, int] = {}
        deadline_by_key: Dict[TaskKey, float] = {}

    # Build instance-level precedence bookkeeping.
    indegree: Dict[TaskKey, int] = {}
    arrival: Dict[TaskKey, float] = {}
    heap: List[Tuple[float, float, TaskKey]] = []
    for instance in request.assoc.iter_explicit():
        if request.graphs is not None and instance.graph not in request.graphs:
            continue
        graph = spec.graph(instance.graph)
        if bound is not None:
            bound_ncopies[instance.graph] = request.assoc.n_copies(
                instance.graph
            )
            for task_name in graph.deadline_tasks():
                deadline_by_key[(instance.graph, instance.copy, task_name)] = (
                    instance.arrival + graph.effective_deadline(task_name)
                )
        for task_name in graph.topological_order():
            key = (instance.graph, instance.copy, task_name)
            indegree[key] = len(graph.predecessors(task_name))
            arrival[key] = instance.arrival
            if indegree[key] == 0:
                priority = request.priorities[instance.graph][task_name]
                heapq.heappush(heap, (-priority, instance.arrival, key))

    scheduled_count = 0
    total_instances = len(indegree)
    best_comm = _best_case_comm(request)
    while heap:
        _, _, key = heapq.heappop(heap)
        graph_name, copy_index, task_name = key
        graph = spec.graph(graph_name)
        task = graph.task(task_name)
        pe, mode = _placement_of_task(request, graph_name, task_name)

        # 1. Schedule incoming edges; compute data-ready time.
        ready = arrival[key]
        for pred_name in graph.predecessors(task_name):
            pred_key = (graph_name, copy_index, pred_name)
            pred_finish = schedule.finish_of(pred_key)
            pred_pe_id = schedule.tasks[pred_key].pe_id
            edge = graph.edge(pred_name, task_name)
            edge_key = (graph_name, copy_index, pred_name, task_name)
            if pe is None or pred_pe_id is None:
                # Virtual endpoint: best-case communication estimate,
                # no link occupied.
                finish = pred_finish + best_comm(edge.bytes_)
                schedule.edges[edge_key] = ScheduledEdge(
                    key=edge_key, link_id=None, start=pred_finish, finish=finish
                )
                ready = max(ready, finish)
                continue
            if pred_pe_id == pe.id or edge.bytes_ == 0:
                schedule.edges[edge_key] = ScheduledEdge(
                    key=edge_key, link_id=None, start=pred_finish, finish=pred_finish
                )
                ready = max(ready, pred_finish)
                continue
            link = request.arch.find_link_between(pred_pe_id, pe.id)
            if link is None:
                raise AllocationError(
                    "no link connects %r and %r for edge %s->%s"
                    % (pred_pe_id, pe.id, pred_name, task_name)
                )
            timeline = schedule.link_timelines.setdefault(
                link.id, IntervalTimeline()
            )
            duration = link.comm_time(edge.bytes_)
            start = timeline.earliest_fit(pred_finish, duration)
            start, finish = timeline.occupy(start, duration, edge_key)
            schedule.edges[edge_key] = ScheduledEdge(
                key=edge_key, link_id=link.id, start=start, finish=finish
            )
            ready = max(ready, finish)
            if bound is not None and copy_index == 0:
                load = bound_demand.get(link.id, 0.0) + (
                    finish - start
                ) * bound_ncopies[graph_name]
                bound_demand[link.id] = load
                if (
                    link.id not in crossed
                    and load / capacity > _OVERLOAD_TOLERANCE
                ):
                    crossed.add(link.id)
                    violations += 1
                    if violations > bound_limit:
                        raise ScheduleAbort("overload")

        # 2. Place the task on its resource.
        was_split = False
        if pe is None:
            # Virtual placement: best-case execution, no contention.
            tracer.incr("sched.tasks.virtual")
            start, finish = ready, ready + task.min_exec_time
        else:
            tracer.incr("sched.tasks.real")
            wcet = task.wcet_on(pe.pe_type.name)
            if pe.pe_type.kind is PEKind.PROCESSOR:
                start, finish, was_split = _place_on_processor(
                    schedule, request, pe, key, ready, wcet
                )
            elif pe.pe_type.kind is PEKind.ASIC:
                # Independent circuit block: no contention.
                start, finish = ready, ready + wcet
            else:
                timeline = schedule.ppe_timelines.setdefault(
                    pe.id, PpeModeTimeline()
                )
                cluster = request.clustering.cluster_of(graph_name, task_name)
                allowed = {
                    m: boot_time_fn(pe, m)
                    for m in pe.modes_of_cluster(cluster.name)
                }
                start, finish = timeline.place(
                    mode, ready, wcet, boot_time_fn(pe, mode), allowed=allowed
                )
            if (
                bound is not None
                and copy_index == 0
                and pe.pe_type.kind is not PEKind.ASIC
            ):
                # Serial resource (processor or PPE): accumulate the
                # same per-PE demand finish-time evaluation sums.
                load = bound_demand.get(pe.id, 0.0) + (
                    finish - start
                ) * bound_ncopies[graph_name]
                bound_demand[pe.id] = load
                if (
                    pe.id not in crossed
                    and load / capacity > _OVERLOAD_TOLERANCE
                ):
                    crossed.add(pe.id)
                    violations += 1
                    if violations > bound_limit:
                        raise ScheduleAbort("overload")
        schedule.tasks[key] = ScheduledTask(
            key=key,
            pe_id=pe.id if pe is not None else None,
            mode=mode,
            start=start,
            finish=finish,
            preempted=was_split,
        )
        scheduled_count += 1
        if bound is not None:
            absolute = deadline_by_key.get(key)
            if absolute is not None and finish - absolute > TIME_EPS:
                violations += 1
                if violations > bound_limit:
                    raise ScheduleAbort("deadline")

        # 3. Release successors.
        priority_table = request.priorities[graph_name]
        for succ_name in graph.successors(task_name):
            succ_key = (graph_name, copy_index, succ_name)
            indegree[succ_key] -= 1
            if indegree[succ_key] == 0:
                heapq.heappush(
                    heap,
                    (-priority_table[succ_name], arrival[succ_key], succ_key),
                )

    if scheduled_count != total_instances:
        raise SchedulingError(
            "scheduled %d of %d task instances; precedence graph is inconsistent"
            % (scheduled_count, total_instances)
        )
    return schedule


def _placement_of_task(
    request: ScheduleRequest, graph_name: str, task_name: str
) -> Tuple[Optional[PEInstance], int]:
    """(PE instance, mode) a task is allocated to via its cluster, or
    (None, -1) when the cluster has no placement yet."""
    cluster = request.clustering.cluster_of(graph_name, task_name)
    if not request.arch.is_allocated(cluster.name):
        return None, -1
    pe_id, mode = request.arch.placement_of(cluster.name)
    return request.arch.pe(pe_id), mode


def _best_case_comm(request: ScheduleRequest) -> "Callable[[int], float]":
    """Best-case transfer-time estimator over the link library, used
    for edges touching virtually placed tasks."""
    links = request.arch.library.links_by_cost()

    def comm(bytes_: int) -> float:
        if bytes_ == 0 or not links:
            return 0.0
        return min(l.comm_time(bytes_) for l in links)

    return comm


def _place_on_processor(
    schedule: Schedule,
    request: ScheduleRequest,
    pe: PEInstance,
    key: TaskKey,
    ready: float,
    wcet: float,
) -> Tuple[float, float, bool]:
    """Place a task on a processor's linear timeline.

    Non-preemptive first-fit by default.  With preemption enabled, a
    task that would be delayed behind already-reserved (higher-
    priority) work may instead *split* across the free gaps, paying
    the processor's preemption overhead per resumption; the split is
    used only when it strictly improves the task's finish time.  Each
    split decision is traced as it is made.
    """
    processor = pe.pe_type
    assert isinstance(processor, ProcessorType)
    duration = wcet + processor.context_switch_time
    timeline = schedule.proc_timelines.get(pe.id)
    if timeline is None:
        timeline = schedule.proc_timelines[pe.id] = IntervalTimeline()
    start = timeline.earliest_fit(ready, duration)
    if start <= ready or not request.preemption:
        return timeline.occupy(start, duration, key) + (False,)

    segments = timeline.split_fit(
        ready, duration, processor.preemption_overhead
    )
    if segments is None or len(segments) < 2:
        request.tracer.incr("sched.preemption.splits_declined")
        return timeline.occupy(start, duration, key) + (False,)
    contiguous_finish = start + duration
    split_finish = segments[-1][1]
    if split_finish >= contiguous_finish:
        request.tracer.incr("sched.preemption.splits_declined")
        return timeline.occupy(start, duration, key) + (False,)
    for seg_start, seg_end in segments:
        timeline.occupy(seg_start, seg_end - seg_start, key)
    schedule.preemptions += 1
    request.tracer.incr("sched.preemption.splits_taken")
    return segments[0][0], split_finish, True


class ReferenceEngine:
    """Engine test double: every evaluation schedules from scratch.

    Duck-types the surface of
    :class:`repro.perf.engine.IncrementalEngine` that synthesis uses
    (``evaluate``, ``cache_info``, ``bind_store``, ``store``).  Each
    :meth:`evaluate` runs :func:`build_reference_schedule` over the
    whole (scoped) specification and judges it with
    :func:`~repro.sched.finish_time.evaluate_deadlines` -- one
    scheduler run per evaluation, no fragments, no plans, no caches.
    A ``bound`` aborts the monolithic run directly, so aborts are
    never booked as ``"carried"``.
    """

    #: A fragment-tier binding, accepted and never consulted.
    store = None

    def evaluate(
        self,
        spec,
        assoc,
        clustering,
        arch,
        priorities: Dict[str, Dict[str, float]],
        boot_time_fn: Optional[Callable[[PEInstance, int], float]],
        preemption: bool,
        tracer,
        bound: Optional[tuple] = None,
    ) -> Tuple[Schedule, DeadlineReport]:
        """Schedule ``arch`` against ``spec`` from scratch."""
        schedule = build_reference_schedule(ScheduleRequest(
            spec=spec,
            assoc=assoc,
            clustering=clustering,
            arch=arch,
            priorities=priorities,
            boot_time_fn=boot_time_fn,
            preemption=preemption,
            tracer=tracer,
            bound=bound,
        ))
        return schedule, evaluate_deadlines(schedule, spec, assoc)

    def bind_store(self, binding) -> None:
        """Accept a persistent-store binding (reads and writes none)."""
        self.store = binding

    def cache_info(self) -> Dict[str, int]:
        """No caches, so no gauges."""
        return {}


def _cuts_nothing(self, arch, option, graphs, tracer=None):
    """``CandidatePruner.bound`` with the floors off: evaluate all."""
    return None


def _zero_floor(self, arch):
    """``RepairBound.badness_floor`` with the floors off.  Repair only
    runs against an incumbent with at least one violation, so a zero
    floor never reaches its badness and cuts nothing."""
    return (0, 0.0, 0.0)


def _unbounded(evaluate):
    """An engine ``evaluate`` that drops its abort ``bound``."""
    @functools.wraps(evaluate)
    def evaluate_to_completion(self, *args, bound=None, **kwargs):
        return evaluate(self, *args, **kwargs)
    return evaluate_to_completion


@contextmanager
def exhaustive(keep_floors: bool = False,
               keep_aborts: bool = False) -> Iterator[None]:
    """Run the ``crusade()`` calls in the block without the search cuts.

    * Unless ``keep_floors``, the prune floors cut nothing:
      :meth:`CandidatePruner.bound <repro.perf.prune.CandidatePruner.
      bound>` answers None and :meth:`RepairBound.badness_floor
      <repro.perf.prune.RepairBound.badness_floor>` answers
      ``(0, 0.0, 0.0)``.
    * Unless ``keep_aborts``, no evaluation aborts: the ``evaluate`` of
      :class:`~repro.perf.engine.IncrementalEngine` and of
      :class:`ReferenceEngine` drops its ``bound``.  Allocation, repair
      and the merge evaluator all send their bound through
      :func:`~repro.alloc.evaluate.evaluate_architecture` to
      ``engine.evaluate``, so no abort bypasses this.

    The two switches combine freely, with either engine.  They patch
    the classes for the block's duration, so a call that donates no
    engine keeps its store and tracer behaviour; the patch is
    process-wide, so run nothing concurrently.
    """
    with ExitStack() as stack:
        if not keep_floors:
            stack.enter_context(
                mock.patch.object(CandidatePruner, "bound", _cuts_nothing)
            )
            stack.enter_context(
                mock.patch.object(RepairBound, "badness_floor", _zero_floor)
            )
        if not keep_aborts:
            for engine_class in (IncrementalEngine, ReferenceEngine):
                stack.enter_context(mock.patch.object(
                    engine_class, "evaluate",
                    _unbounded(engine_class.evaluate),
                ))
        yield
