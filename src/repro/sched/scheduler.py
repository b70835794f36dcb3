"""Priority-driven static list scheduler (Section 5).

Tasks and edges are scheduled in deadline-priority order.  The
scheduler is the inner-loop workhorse of co-synthesis: every candidate
allocation is scheduled and its finish times estimated before the
allocation is accepted.

Semantics per resource kind:

* general-purpose processors serialize their tasks (busy-interval
  timeline, first-fit gap placement); a per-task dispatch overhead of
  one context switch is charged, and *restricted preemption* lets a
  delayed task split across the free gaps between already-reserved
  higher-priority work -- it starts, is preempted by each reservation,
  resumes afterwards, and pays the processor's preemption overhead per
  resumption (the paper's "preemptive scheduling is used in restricted
  scenarios"); the split is taken only when it strictly improves the
  task's finish time;
* ASICs run each mapped task as an independent circuit block, so tasks
  never contend;
* programmable PEs run same-mode tasks concurrently but serialize
  across modes with a reboot of the device boot time between mode
  windows (the implicit ``reboot_task`` of Section 4.3);
* links serialize transfers (busy-interval timeline); transfers
  between tasks on the same PE instance are free.

Copies beyond the association array's explicit set are not
materialized; their timing is the representative copy's shifted by
whole periods (see :mod:`repro.graph.association`).

:func:`build_schedule` is the one scheduling loop.  It runs over a
:class:`repro.perf.fastsched.SchedulerContext` -- the cross-run caches
the incremental engine owns: a per-spec plan of instance records,
route and transfer-time memos, and the production timeline pair
(:mod:`repro.perf.fasttimeline`).  Requests without a context get a
fresh one.  Its oracle is the reference loop in
``tests/sched/reference_scheduler.py``, which re-derives every
decision input from the specification on every run and schedules onto
the linear timelines of :mod:`repro.sched.timeline`; the test suites
hold the two to byte-identical schedules and results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import AllocationError, SchedulingError
from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.obs.trace import NULL_TRACER, Tracer
from repro.reconfig.reboot import default_boot_time
from repro.resources.pe import PEKind, ProcessorType
from repro.sched.timeline import ModeTimeline, Timeline
from repro.units import TIME_EPS

if TYPE_CHECKING:
    from repro.perf.fastsched import SchedulerContext

#: (graph name, copy index, task name)
TaskKey = Tuple[str, int, str]
#: (graph name, copy index, src task, dst task)
EdgeKey = Tuple[str, int, str, str]


class ScheduleAbort(Exception):
    """Bounded-search abort: the partial schedule already loses.

    Raised (only when :attr:`ScheduleRequest.bound` is set) the moment
    the number of *proven* violations -- deadline instances already
    placed late, plus serial resources whose copy-0 demand already
    crossed the overload tolerance, plus ``bound_base`` violations
    carried from earlier schedule fragments -- exceeds the bound's
    first badness component.  Violation counts only grow as scheduling
    proceeds, so an aborted candidate's final badness would necessarily
    compare greater than the bound: aborting is pure dominance, and
    the caller may drop the candidate without changing the synthesized
    result (see :mod:`repro.perf.prune` for the switch plumbing).

    ``reason`` is ``"deadline"`` or ``"overload"`` for in-schedule
    triggers, ``"carried"`` when the incremental engine's cross-
    fragment accumulation tips the count between fragments.
    """

    def __init__(self, reason: str) -> None:
        """Record which violation kind tipped the count."""
        super().__init__(reason)
        self.reason = reason


@dataclass
class ScheduledTask:
    """Placement of one task instance in the schedule.

    ``pe_id`` is None for *virtual* placements: tasks whose cluster is
    not yet allocated are estimated at their best-case execution time
    on no resource, so partial architectures can still be finish-time
    checked (the COSYN estimation convention).
    """

    key: TaskKey
    pe_id: Optional[str]
    mode: int
    start: float
    finish: float
    preempted: bool = False


@dataclass
class ScheduledEdge:
    """Placement of one edge instance (None link = same-PE transfer)."""

    key: EdgeKey
    link_id: Optional[str]
    start: float
    finish: float


@dataclass
class ScheduleRequest:
    """Everything the scheduler needs for one run.

    Attributes
    ----------
    priorities:
        graph name -> task name -> priority level (larger = more
        urgent); recomputed by CRUSADE after each allocation.
    boot_time_fn:
        (PE instance, mode index) -> reconfiguration time in seconds.
        Defaults to :func:`repro.reconfig.reboot.default_boot_time`.
    preemption:
        Enable the restricted-preemption path on processors.
    tracer:
        Observability sink for scheduler-decision counters; the null
        tracer by default (no overhead, no behavior change).
    graphs:
        Optional graph-name filter: only copies of these graphs are
        scheduled.  Unlike the scoped sub-spec path this keeps the
        *full* association array, so arrivals and copy counts match
        the unfiltered run exactly -- the incremental engine uses it
        to schedule one resource-coupled component at a time.
    context:
        Optional :class:`repro.perf.fastsched.SchedulerContext` whose
        cached plan, memos and timeline factory pair the run uses;
        the incremental engine passes its own so the caches persist
        across runs.  None schedules over a fresh context.
    bound:
        Optional incumbent badness tuple (as returned by
        ``DeadlineReport.badness()`` or ``EvalResult.badness()``;
        only element 0, the violation count, is consulted).  When set,
        scheduling raises :class:`ScheduleAbort` as soon as the number
        of proven violations in the partial schedule *exceeds*
        ``bound[0]`` -- the candidate then provably loses to the
        incumbent and the caller may discard it.  None (the default)
        disables the check entirely.
    bound_base:
        Violations already proven before this run starts; the
        incremental engine carries deadline misses and overloads from
        earlier schedule fragments here so the abort trigger matches
        a monolithic run.
    """

    spec: SystemSpec
    assoc: AssociationArray
    clustering: ClusteringResult
    arch: Architecture
    priorities: Dict[str, Dict[str, float]]
    boot_time_fn: Optional[Callable[[PEInstance, int], float]] = None
    preemption: bool = True
    tracer: Tracer = NULL_TRACER
    graphs: Optional[frozenset] = None
    context: Optional["SchedulerContext"] = None
    bound: Optional[tuple] = None
    bound_base: int = 0


@dataclass
class Schedule:
    """Complete output of one scheduling run.

    ``lateness`` and ``demand`` are the verdict by-products
    :func:`build_schedule` computes inline -- per-graph
    ``{task key: finish - absolute deadline}`` in
    :func:`repro.sched.finish_time.deadline_lateness` order, and the
    copy-0 hyperperiod demand per serial resource -- bit-identical to
    the post-pass recomputation.  They are None on schedules assembled
    any other way (e.g. the engine's merge of several fragments).
    """

    tasks: Dict[TaskKey, ScheduledTask] = field(default_factory=dict)
    edges: Dict[EdgeKey, ScheduledEdge] = field(default_factory=dict)
    proc_timelines: Dict[str, Timeline] = field(default_factory=dict)
    ppe_timelines: Dict[str, ModeTimeline] = field(default_factory=dict)
    link_timelines: Dict[str, Timeline] = field(default_factory=dict)
    preemptions: int = 0
    lateness: Optional[Dict[str, Dict[TaskKey, float]]] = field(
        default=None, repr=False, compare=False
    )
    demand: Optional[Dict[str, float]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def reconfigurations(self) -> int:
        """Total mode switches across all programmable PEs."""
        return sum(t.reconfigurations for t in self.ppe_timelines.values())

    def finish_of(self, key: TaskKey) -> float:
        """Finish time of a scheduled task instance."""
        try:
            return self.tasks[key].finish
        except KeyError:
            raise SchedulingError("task %r not scheduled" % (key,)) from None

    def makespan(self) -> float:
        """Latest finish across all scheduled task instances."""
        if not self.tasks:
            return 0.0
        return max(t.finish for t in self.tasks.values())


def build_schedule(request: ScheduleRequest) -> Schedule:
    """Run the list scheduler over all explicit copy instances.

    Scheduling runs over the request's
    :class:`~repro.perf.fastsched.SchedulerContext` -- its cached
    plan, route and transfer-time memos and timeline factory pair --
    or over a fresh context when the request carries none.

    Raises :class:`SchedulingError` on internal inconsistencies (e.g.
    an unallocated task) and :class:`AllocationError` when two
    communicating tasks sit on unconnected PEs.  Missed deadlines do
    *not* raise; they are reported by finish-time evaluation (and
    pre-computed in :attr:`Schedule.lateness` / :attr:`Schedule.demand`).
    """
    context = request.context
    if context is None:
        # Deferred: repro.perf imports this module.
        from repro.perf.fastsched import SchedulerContext

        context = SchedulerContext()
    schedule = Schedule()
    arch = request.arch
    priorities = request.priorities
    boot_time_fn = request.boot_time_fn or default_boot_time
    preemption = request.preemption
    tracer = request.tracer
    tracer.incr("sched.runs")
    context._sync_library(arch.library)
    timeline_cls = context.timeline_cls
    ppe_timeline_cls = context.ppe_timeline_cls
    # The architecture is frozen for the duration of one scheduler run,
    # so per-arch/per-run lookups hoist out of the task loop entirely:
    # the route memo for the current topology, the transfer-time memo,
    # and per-run memos for the PPE placement inputs (a device's modes
    # carrying a cluster, and boot times, are pure functions of the
    # frozen architecture -- the fingerprint layer already relies on
    # boot_time_fn purity).
    route_table = context.route_table(arch)
    comm_cache = context._comm
    #: (pe id, cluster) -> ({mode: boot}, sorted items) for PPE hosts.
    allowed_memo: Dict[tuple, tuple] = {}
    boot_memo: Dict[tuple, float] = {}

    plan = context.plan_for(request)
    records = plan.records
    wcet_memo = plan.wcet
    ncopies = plan.ncopies
    # Bounded-search bookkeeping: the inline demand map below is
    # already bit-identical to the post-pass recomputation, so the
    # abort trigger (violations > bound[0]) only needs the crossing
    # checks and the plan's absolute deadlines (see
    # :class:`ScheduleAbort`).
    bound = request.bound
    if bound is not None:
        from repro.sched.finish_time import _OVERLOAD_TOLERANCE

        bound_limit = bound[0]
        violations = request.bound_base
        capacity = request.assoc.hyperperiod
        crossed: set = set()
        deadline_by_key = plan.deadline_map()
    indegree = dict(plan.indegree)
    heap: List[Tuple[float, float, tuple]] = []
    for key in plan.roots:
        record = records[key]
        heapq.heappush(heap, (-priorities[key[0]][key[2]], record[0], key))

    cluster_alloc = arch.cluster_alloc
    pes = arch.pes
    library = arch.library
    tasks = schedule.tasks
    edges = schedule.edges
    scheduled_count = 0
    # Per-run decision counters, flushed in one batch after the loop
    # (identical totals, a fraction of the Tracer.incr call volume).
    n_virtual = 0
    n_real = 0
    split_counts = [0, 0]
    # Copy-0 hyperperiod demand, accumulated inline.  Per-resource
    # accumulation order equals the post-pass
    # :func:`repro.sched.finish_time.resource_demand` order (schedule
    # insertion order; processor/PPE buckets touched only from task
    # placements, link buckets only from edge placements), so the
    # float sums are bit-identical; consumers sort the keys.
    demand: Dict[str, float] = {}
    while heap:
        _, _, key = heapq.heappop(heap)
        graph_name, _, task_name = key
        arrival, preds, succs, task, cluster_name = records[key]
        placement = cluster_alloc.get(cluster_name)
        if placement is None:
            pe, mode, pe_id = None, -1, None
        else:
            pe_id, mode = placement
            pe = pes[pe_id]

        # 1. Schedule incoming edges; compute data-ready time.
        ready = arrival
        for pred_key, bytes_, edge_key in preds:
            pred_task = tasks[pred_key]
            pred_finish = pred_task.finish
            pred_pe_id = pred_task.pe_id
            if pe is None or pred_pe_id is None:
                # Virtual endpoint: best-case communication estimate,
                # no link occupied.
                finish = pred_finish + context.best_comm(library, bytes_)
                edges[edge_key] = ScheduledEdge(
                    key=edge_key, link_id=None, start=pred_finish, finish=finish
                )
                if finish > ready:
                    ready = finish
                continue
            if pred_pe_id == pe_id or bytes_ == 0:
                edges[edge_key] = ScheduledEdge(
                    key=edge_key, link_id=None, start=pred_finish,
                    finish=pred_finish,
                )
                if pred_finish > ready:
                    ready = pred_finish
                continue
            pair = (pred_pe_id, pe_id)
            try:
                link = route_table[pair]
            except KeyError:
                link = route_table[pair] = arch.find_link_between(
                    pred_pe_id, pe_id
                )
            if link is None:
                raise AllocationError(
                    "no link connects %r and %r for edge %s->%s"
                    % (pred_pe_id, pe_id, pred_key[2], task_name)
                )
            timeline = schedule.link_timelines.get(link.id)
            if timeline is None:
                timeline = schedule.link_timelines[link.id] = timeline_cls()
            # Transfer time is a pure function of (link type, current
            # port count, payload) -- the paper's recomputed
            # communication vectors.
            ports = link.ports_used
            ckey = (link.link_type.name, ports if ports > 2 else 2, bytes_)
            try:
                duration = comm_cache[ckey]
            except KeyError:
                duration = comm_cache[ckey] = link.comm_time(bytes_)
            start = timeline.earliest_fit(pred_finish, duration)
            start, finish = timeline.occupy(start, duration, edge_key)
            link_id = link.id
            edges[edge_key] = ScheduledEdge(
                key=edge_key, link_id=link_id, start=start, finish=finish
            )
            if key[1] == 0:
                load = demand.get(link_id, 0.0) + (
                    finish - start
                ) * ncopies[graph_name]
                demand[link_id] = load
                if (
                    bound is not None
                    and link_id not in crossed
                    and load / capacity > _OVERLOAD_TOLERANCE
                ):
                    crossed.add(link_id)
                    violations += 1
                    if violations > bound_limit:
                        raise ScheduleAbort("overload")
            if finish > ready:
                ready = finish

        # 2. Place the task on its resource.
        was_split = False
        if pe is None:
            # Virtual placement: best-case execution, no contention.
            n_virtual += 1
            start, finish = ready, ready + task.min_exec_time
        else:
            n_real += 1
            pe_type = pe.pe_type
            wkey = (id(task), pe_type.name)
            wcet = wcet_memo.get(wkey)
            if wcet is None:
                wcet = wcet_memo[wkey] = task.wcet_on(pe_type.name)
            kind = pe_type.kind
            if kind is PEKind.ASIC:
                # Independent circuit block: no contention.
                start, finish = ready, ready + wcet
            else:
                if kind is PEKind.PROCESSOR:
                    start, finish, was_split = _place_on_processor(
                        schedule, pe, key, ready, wcet, preemption,
                        timeline_cls, split_counts,
                    )
                else:
                    timeline = schedule.ppe_timelines.get(pe_id)
                    if timeline is None:
                        timeline = schedule.ppe_timelines[pe_id] = (
                            ppe_timeline_cls()
                        )
                    akey = (pe_id, cluster_name)
                    entry = allowed_memo.get(akey)
                    if entry is None:
                        allowed = {
                            m: boot_time_fn(pe, m)
                            for m in pe.modes_of_cluster(cluster_name)
                        }
                        entry = allowed_memo[akey] = (
                            allowed, sorted(allowed.items()),
                        )
                    allowed, allowed_sorted = entry
                    bkey = (pe_id, mode)
                    boot = boot_memo.get(bkey)
                    if boot is None:
                        boot = boot_memo[bkey] = boot_time_fn(pe, mode)
                    start, finish = timeline.place(
                        mode, ready, wcet, boot, allowed=allowed,
                        allowed_sorted=allowed_sorted,
                    )
                if key[1] == 0:
                    # Serial resource (processor or PPE): the per-PE
                    # demand finish-time evaluation sums.
                    load = demand.get(pe_id, 0.0) + (
                        finish - start
                    ) * ncopies[graph_name]
                    demand[pe_id] = load
                    if (
                        bound is not None
                        and pe_id not in crossed
                        and load / capacity > _OVERLOAD_TOLERANCE
                    ):
                        crossed.add(pe_id)
                        violations += 1
                        if violations > bound_limit:
                            raise ScheduleAbort("overload")
        tasks[key] = ScheduledTask(
            key=key,
            pe_id=pe_id,
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
        if succs:
            priority_table = priorities[graph_name]
            for succ_key, succ_name in succs:
                remaining = indegree[succ_key] - 1
                indegree[succ_key] = remaining
                if remaining == 0:
                    heapq.heappush(
                        heap,
                        (
                            -priority_table[succ_name],
                            records[succ_key][0],
                            succ_key,
                        ),
                    )

    if scheduled_count != plan.total:
        raise SchedulingError(
            "scheduled %d of %d task instances; precedence graph is inconsistent"
            % (scheduled_count, plan.total)
        )
    if n_real:
        tracer.incr("sched.tasks.real", n_real)
    if n_virtual:
        tracer.incr("sched.tasks.virtual", n_virtual)
    if split_counts[0]:
        tracer.incr("sched.preemption.splits_declined", split_counts[0])
    if split_counts[1]:
        tracer.incr("sched.preemption.splits_taken", split_counts[1])

    # Verdict by-products: per-graph lateness in the contract
    # insertion order (the plan's rows) and the inline demand map --
    # both bit-identical to the post-pass recomputation.
    lateness: Dict[str, dict] = {}
    for name, rows in plan.deadline_rows.items():
        per_graph: Dict[tuple, float] = {}
        for row_key, absolute in rows:
            placed = tasks.get(row_key)
            if placed is not None:
                per_graph[row_key] = placed.finish - absolute
        lateness[name] = per_graph
    schedule.lateness = lateness
    schedule.demand = demand
    return schedule


def _place_on_processor(
    schedule: Schedule,
    pe: PEInstance,
    key: TaskKey,
    ready: float,
    wcet: float,
    preemption: bool,
    timeline_cls: type,
    split_counts: list,
) -> Tuple[float, float, bool]:
    """Place a task on a processor.

    Non-preemptive first-fit by default.  With preemption enabled, a
    task that would be delayed behind already-reserved (higher-
    priority) work may instead *split* across the free gaps -- it
    starts, is preempted by each reservation, and resumes afterwards,
    paying the processor's preemption overhead per resumption
    (Section 5's restricted preemptive scheduling).  The split is used
    only when it strictly improves the task's finish time.

    ``timeline_cls`` builds the processor's timeline on first use;
    ``split_counts`` (a ``[declined, taken]`` pair) batches the split
    decision counters, which the caller flushes to the tracer once
    per run.
    """
    processor = pe.pe_type
    assert isinstance(processor, ProcessorType)
    duration = wcet + processor.context_switch_time
    timeline = schedule.proc_timelines.get(pe.id)
    if timeline is None:
        timeline = schedule.proc_timelines[pe.id] = timeline_cls()
    start = timeline.earliest_fit(ready, duration)
    if start <= ready or not preemption:
        return timeline.occupy(start, duration, key) + (False,)

    segments = timeline.split_fit(
        ready, duration, processor.preemption_overhead
    )
    if segments is None or len(segments) < 2:
        split_counts[0] += 1
        return timeline.occupy(start, duration, key) + (False,)
    contiguous_finish = start + duration
    split_finish = segments[-1][1]
    if split_finish >= contiguous_finish:
        split_counts[0] += 1
        return timeline.occupy(start, duration, key) + (False,)
    for seg_start, seg_end in segments:
        timeline.occupy(seg_start, seg_end - seg_start, key)
    schedule.preemptions += 1
    split_counts[1] += 1
    return segments[0][0], split_finish, True
