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
transfer-time memos, and trails -- and builds every schedule
onto the production timeline pair (:mod:`repro.perf.fasttimeline`).
Requests without a context get a fresh one.

A build reads the architecture once, before its first decision: each
cluster's placement (:func:`_cluster_signatures`, which also gives
every decision its PE type name and kind), and the footprint's
programmable devices and links from the component fingerprint the
engine already computed for the request
(:attr:`ScheduleRequest.fingerprint`; a request without one derives
the same view with :func:`repro.perf.fingerprint.footprint_view`).  A
device's modes carrying a cluster and their boot times come from its
signature (:func:`_device_read`), so a build calls no boot-time
function.  The link joining two PEs is read through the
architecture's own memo (:meth:`Architecture.link_between`).

The heap that orders the decisions -- highest priority, then earliest
arrival, then smallest key, among the tasks whose predecessors are
decided -- reads no placement, time or resource.  So the decision
order is a function of the plan and its graphs' priorities
(:func:`_decision_order`), computed once per priority table, and the
loop walks it without a heap.

A context also keeps a *trail* of each plan's last finished build,
and consecutive builds of one plan -- candidate after candidate in
the allocation loop -- mostly differ by one cluster's placement.  A
decision is reused only when its task, its placement and every value
it reads equal the trail's, and the trail indexes where each input
was first read and keeps its build's view, so the first decision that
differs is found without walking the prefix (:func:`_resume_point`):
the trail's device reads carry over wherever the device's signature
or the read itself is unchanged, and its PE-pair reads are walked
only up to the first change.  The
schedule state as of that decision is restored from the trail in
bulk -- slices of its dicts and logs (:func:`_restore_prefix`) -- and
the loop schedules on from there.  Nothing is guessed, so the
schedule, its by-products, a bound's abort and the tracer counters
are the ones a from-scratch build gives; only the timeline operations
of the reused decisions are skipped.  Its oracle is the reference loop in
``tests/sched/reference_scheduler.py``, which re-derives every
decision input from the specification on every run and schedules onto
the linear timelines of :mod:`repro.sched.timeline`; the test suites
hold the two to byte-identical schedules and results.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import itemgetter
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
    result.  Allocation, repair and the merge evaluator always pass
    their incumbent's bound.

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
        cached plan, memos and trails the run uses; the incremental
        engine passes its own so the caches persist across runs.  None
        schedules over a fresh context.
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
    fingerprint:
        Optional component fingerprint
        (:func:`repro.perf.fingerprint.component_fingerprint`) of
        ``graphs`` over this request's architecture, boot-time
        function and preemption setting, as the incremental engine
        computed it.  Its PE and link signatures are the build's view
        of every programmable device's modes and boot times and of the
        links; None derives the same view from the architecture
        (:func:`repro.perf.fingerprint.footprint_view`).
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
    fingerprint: Optional[tuple] = None


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

    def __getstate__(self) -> tuple:
        """Pickled state: tasks and edges as rows of their fields, in
        dict order (each keyed by its own ``key``); the timelines pack
        themselves (:mod:`repro.perf.fasttimeline`)."""
        return (
            [(t.key, t.pe_id, t.mode, t.start, t.finish, t.preempted)
             for t in self.tasks.values()],
            [(e.key, e.link_id, e.start, e.finish)
             for e in self.edges.values()],
            self.proc_timelines,
            self.ppe_timelines,
            self.link_timelines,
            self.preemptions,
            self.lateness,
            self.demand,
        )

    def __setstate__(self, state) -> None:
        """Rebuild from :meth:`__getstate__`'s rows, or from the
        attribute dict that store entries written before the rows
        hold."""
        if isinstance(state, dict):
            self.__dict__.update(state)
            return
        (task_rows, edge_rows, proc, ppe, link, preemptions, lateness,
         demand) = state
        self.tasks = {row[0]: ScheduledTask(*row) for row in task_rows}
        self.edges = {row[0]: ScheduledEdge(*row) for row in edge_rows}
        self.proc_timelines = proc
        self.ppe_timelines = ppe
        self.link_timelines = link
        self.preemptions = preemptions
        self.lateness = lateness
        self.demand = demand


def build_schedule(request: ScheduleRequest) -> Schedule:
    """Run the list scheduler over all explicit copy instances.

    Scheduling runs over the request's
    :class:`~repro.perf.fastsched.SchedulerContext` -- its cached
    plan, transfer-time memos and trails -- or over a fresh
    context when the request carries none, onto the production
    timeline pair (:mod:`repro.perf.fasttimeline`).  The
    decisions follow the plan's decision order under the request's
    priorities (:func:`_decision_order`).  Programmable devices and
    links are read through the request's fingerprint, or through the
    same view derived here when it carries none
    (:func:`repro.perf.fingerprint.footprint_view`).  When the context
    holds a trail of an earlier build of the same plan, the build
    resumes from it: the leading decisions whose every input equals
    the trail's are copied rather than recomputed
    (:func:`_resume_point`, :func:`_restore_prefix`), and scheduling
    goes on from the first decision that differs.  The schedule, its
    by-products and the tracer counters are the ones a from-scratch
    build produces.

    Tasks whose cluster is unallocated are placed virtually (see
    :class:`ScheduledTask`).  Raises :class:`SchedulingError` on
    internal inconsistencies (a precedence graph the decision order
    cannot complete, or a timeline operation that would overlap) and
    :class:`AllocationError` when two communicating tasks sit on
    unconnected PEs.  Missed deadlines do *not* raise; they are
    reported by finish-time evaluation (and pre-computed in
    :attr:`Schedule.lateness` / :attr:`Schedule.demand`).
    """
    # Deferred: repro.perf imports this module, and finish_time
    # imports it.
    from repro.perf.fastsched import SchedulerContext, Trail
    from repro.perf.fasttimeline import FastPpeModeTimeline, FastTimeline
    from repro.perf.fingerprint import footprint_view
    from repro.sched.finish_time import _OVERLOAD_TOLERANCE

    context = request.context
    if context is None:
        context = SchedulerContext()
    schedule = Schedule()
    arch = request.arch
    library = arch.library
    priorities = request.priorities
    preemption = request.preemption
    tracer = request.tracer
    tracer.incr("sched.runs")
    context._sync_library(library)
    best_comm = context._best_comm
    comm_cache = context._comm
    # The architecture is frozen for the duration of one scheduler run,
    # so per-run memos hoist lookups out of the task loop: the routes
    # and the processors' overheads here, the device reads in the
    # trail.
    #: (pe id, pe id) -> route (see :func:`_route`).
    routes: Dict[tuple, tuple] = {}
    #: pe id -> (timeline, context switch, preemption overhead).
    processors: Dict[str, tuple] = {}

    plan = context.plan_for(request)
    records = plan.records
    wcet_memo = plan.wcet
    min_wcet_memo = plan.min_wcet
    ncopies = plan.ncopies
    # Violations -- deadline instances placed late, and serial
    # resources whose copy-0 demand crossed the overload tolerance --
    # are logged by every build, bounded or not, so a trail can
    # restore them under any bound.  A bound aborts the build once
    # they exceed what ``bound[0]`` leaves after ``bound_base`` (see
    # :class:`ScheduleAbort`); the inline demand map below is already
    # bit-identical to the post-pass recomputation.
    bound = request.bound
    limit = math.inf if bound is None else bound[0] - request.bound_base
    capacity = request.assoc.hyperperiod
    deadline_by_key = plan.deadline_map()
    crossed: set = set()
    # Copy-0 hyperperiod demand, accumulated inline.  Per-resource
    # accumulation order equals the post-pass
    # :func:`repro.sched.finish_time.resource_demand` order (schedule
    # insertion order; processor/PPE buckets touched only from task
    # placements, link buckets only from edge placements), so the
    # float sums are bit-identical; consumers sort the keys.
    demand: Dict[str, float] = {}

    # What the decisions read about the architecture: each cluster's
    # placement, and the footprint's devices and links.
    pes = arch.pes
    sigs = _cluster_signatures(plan, arch.cluster_alloc, pes)
    fingerprint = request.fingerprint
    if fingerprint is None:
        pe_sigs, link_sigs = footprint_view(
            arch, {sig[0] for sig in sigs.values() if sig is not None},
            request.boot_time_fn or default_boot_time,
        )
    else:
        pe_sigs, link_sigs = fingerprint[1], fingerprint[2]
    devices = {sig[0]: sig for sig in pe_sigs}
    view = (devices, link_sigs)

    prior = context.trail_for(plan)
    if prior is not None and (
        prior.library is not library or prior.preemption != preemption
    ):
        prior = None
    # The trail's order serves while the priority *values* equal the
    # copy it was computed from (a table edited in place must not keep
    # a stale order).
    if prior is not None and all(
        priorities.get(name) == table
        for name, table in prior.priorities.items()
    ):
        order, snapshot = prior.order, prior.priorities
    else:
        order = _decision_order(plan, priorities)
        snapshot = {name: dict(priorities[name]) for name in plan.graphs}
        tracer.incr("perf.resume.orders")
    # This build's record, kept as the plan's trail when the build ends.
    trail = Trail(plan, library, preemption, order, snapshot, sigs, view)
    #: (pe id, cluster) -> :func:`_device_read` for PPE hosts.
    device_reads = trail.device_reads
    reused = 0
    if prior is not None:
        reused = _resume_point(
            prior, order, sigs, view, arch, routes, device_reads,
            trail.reads,
        )
        if reused:
            tracer.incr("perf.resume.decisions", reused)
            _restore_prefix(
                prior, trail, reused, schedule, demand, crossed, limit
            )

    tasks = schedule.tasks
    edges = schedule.edges
    proc_timelines = schedule.proc_timelines
    ppe_timelines = schedule.ppe_timelines
    link_timelines = schedule.link_timelines
    # The trail's logs (see :class:`~repro.perf.fastsched.Trail`).
    reads = trail.reads
    places = trail.places
    declined = trail.declined
    splits = trail.splits
    virtual = trail.virtual
    demand_log = trail.demand_log
    events = trail.events
    keys = order[0]
    for step in range(reused, plan.total):
        key = keys[step]
        graph_name, copy, task_name = key
        arrival, preds, _, task, cluster_name = records[key]
        sig = sigs[cluster_name]
        if sig is None:
            pe_id, mode = None, -1
        else:
            pe_id, mode, pe_key, type_name, kind = sig

        # 1. Schedule incoming edges; compute data-ready time.
        ready = arrival
        for pred_key, bytes_, edge_key in preds:
            pred_task = tasks[pred_key]
            pred_finish = pred_task.finish
            pred_pe_id = pred_task.pe_id
            if pe_id is None or pred_pe_id is None:
                # Virtual endpoint: best-case communication estimate,
                # no link occupied.
                comm = best_comm.get(bytes_)
                if comm is None:
                    comm = context.best_comm(library, bytes_)
                finish = pred_finish + comm
                edges[edge_key] = ScheduledEdge(
                    edge_key, None, pred_finish, finish
                )
                if finish > ready:
                    ready = finish
                continue
            if pred_pe_id == pe_id or bytes_ == 0:
                edges[edge_key] = ScheduledEdge(
                    edge_key, None, pred_finish, pred_finish
                )
                if pred_finish > ready:
                    ready = pred_finish
                continue
            pair = (pred_pe_id, pe_id)
            route = routes.get(pair)
            if route is None:
                route = _route(arch, pair)
                if route is None:
                    raise AllocationError(
                        "no link connects %r and %r for edge %s->%s"
                        % (pred_pe_id, pe_id, pred_key[2], task_name)
                    )
                routes[pair] = route
                reads.append((step, pair, route[:3]))
            link_id, link_type_name, ports, link = route
            timeline = link_timelines.get(link_id)
            if timeline is None:
                timeline = link_timelines[link_id] = FastTimeline()
            # Transfer time is a pure function of (link type, current
            # port count, payload) -- the paper's recomputed
            # communication vectors.
            ckey = (link_type_name, ports, bytes_)
            try:
                duration = comm_cache[ckey]
            except KeyError:
                duration = comm_cache[ckey] = link.comm_time(bytes_)
            start = timeline.earliest_fit(pred_finish, duration)
            start, finish = timeline.occupy(start, duration, edge_key)
            edges[edge_key] = ScheduledEdge(edge_key, link_id, start, finish)
            if copy == 0:
                load = demand.get(link_id, 0.0) + (
                    finish - start
                ) * ncopies[graph_name]
                demand[link_id] = load
                demand_log.append((step, link_id, load))
                if (
                    link_id not in crossed
                    and load / capacity > _OVERLOAD_TOLERANCE
                ):
                    crossed.add(link_id)
                    events.append((step, "overload", link_id))
                    if len(events) > limit:
                        raise ScheduleAbort("overload")
            if finish > ready:
                ready = finish

        # 2. Place the task on its resource.
        was_split = False
        if pe_id is None:
            # Virtual placement: best-case execution, no contention.
            virtual.append(step)
            tkey = id(task)
            best = min_wcet_memo.get(tkey)
            if best is None:
                best = min_wcet_memo[tkey] = task.min_exec_time
            start, finish = ready, ready + best
        else:
            wkey = (id(task), type_name)
            wcet = wcet_memo.get(wkey)
            if wcet is None:
                wcet = wcet_memo[wkey] = task.wcet_on(type_name)
            if kind is PEKind.ASIC:
                # Independent circuit block: no contention.
                start, finish = ready, ready + wcet
            else:
                if kind is PEKind.PROCESSOR:
                    # Non-preemptive first-fit, plus one context switch.
                    # With preemption enabled, a task that would be
                    # delayed behind already-reserved (higher-priority)
                    # work may instead *split* across the free gaps --
                    # it starts, is preempted by each reservation, and
                    # resumes afterwards, paying the processor's
                    # preemption overhead per resumption (Section 5's
                    # restricted preemptive scheduling).  The split is
                    # used only when it strictly improves the finish.
                    entry = processors.get(pe_id)
                    if entry is None:
                        processor = pes[pe_id].pe_type
                        assert isinstance(processor, ProcessorType)
                        timeline = proc_timelines.get(pe_key)
                        if timeline is None:
                            timeline = proc_timelines[pe_key] = (
                                FastTimeline()
                            )
                        entry = processors[pe_id] = (
                            timeline,
                            processor.context_switch_time,
                            processor.preemption_overhead,
                        )
                    timeline, switch, overhead = entry
                    duration = wcet + switch
                    start = timeline.earliest_fit(ready, duration)
                    if start <= ready or not preemption:
                        start, finish = timeline.occupy(start, duration, key)
                    else:
                        segments = timeline.split_fit(
                            ready, duration, overhead
                        )
                        if (
                            segments is None
                            or len(segments) < 2
                            or segments[-1][1] >= start + duration
                        ):
                            declined.append(step)
                            start, finish = timeline.occupy(
                                start, duration, key
                            )
                        else:
                            for seg_start, seg_end in segments:
                                timeline.occupy(
                                    seg_start, seg_end - seg_start, key
                                )
                            splits.append(step)
                            start, finish = segments[0][0], segments[-1][1]
                            was_split = True
                else:
                    timeline = ppe_timelines.get(pe_id)
                    if timeline is None:
                        timeline = ppe_timelines[pe_id] = (
                            FastPpeModeTimeline()
                        )
                        places[pe_id] = ([], [])
                    akey = (pe_id, cluster_name)
                    read = device_reads.get(akey)
                    if read is None:
                        read = device_reads[akey] = _device_read(
                            devices[pe_id], cluster_name, mode
                        )
                    on_device, record = places[pe_id]
                    on_device.append(step)
                    allowed, allowed_sorted, boot = read
                    start, finish = timeline.place(
                        mode, ready, wcet, boot, allowed, allowed_sorted,
                        record,
                    )
                if copy == 0:
                    # Serial resource (processor or PPE): the per-PE
                    # demand finish-time evaluation sums.
                    load = demand.get(pe_id, 0.0) + (
                        finish - start
                    ) * ncopies[graph_name]
                    demand[pe_id] = load
                    demand_log.append((step, pe_id, load))
                    if (
                        pe_id not in crossed
                        and load / capacity > _OVERLOAD_TOLERANCE
                    ):
                        crossed.add(pe_id)
                        events.append((step, "overload", pe_id))
                        if len(events) > limit:
                            raise ScheduleAbort("overload")
        tasks[key] = ScheduledTask(key, pe_id, mode, start, finish, was_split)
        absolute = deadline_by_key.get(key)
        if absolute is not None and finish - absolute > TIME_EPS:
            events.append((step, "deadline", None))
            if len(events) > limit:
                raise ScheduleAbort("deadline")

    # Per-run decision counters, booked in one batch after the loop
    # (identical totals, a fraction of the Tracer.incr call volume).
    schedule.preemptions = len(splits)
    n_virtual = len(virtual)
    n_real = plan.total - n_virtual
    if n_real:
        tracer.incr("sched.tasks.real", n_real)
    if n_virtual:
        tracer.incr("sched.tasks.virtual", n_virtual)
    if declined:
        tracer.incr("sched.preemption.splits_declined", len(declined))
    if splits:
        tracer.incr("sched.preemption.splits_taken", len(splits))

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
    trail.schedule = schedule
    context.keep_trail(trail)
    return schedule


def _decision_order(plan, priorities: Dict[str, Dict[str, float]]) -> tuple:
    """The order in which a build of ``plan`` decides its tasks.

    The list scheduler pops the ready task of highest priority, then
    earliest arrival, then smallest key, and a task is ready once all
    its predecessors are decided.  None of this reads a placement, a
    time or a resource, so the order is fixed by the plan and the
    priorities of its graphs; this runs that heap once.  Returns
    ``(keys, first_step, cum_edges)``: the task keys in decision
    order, cluster name -> index of the first decision of its tasks,
    and the number of incoming edges of the first *i* decisions at
    index *i* (``total + 1`` entries).
    """
    records = plan.records
    indegree = dict(plan.indegree)
    heap: List[Tuple[float, float, tuple]] = []
    for key in plan.roots:
        heapq.heappush(
            heap, (-priorities[key[0]][key[2]], records[key][0], key)
        )
    keys: List[tuple] = []
    while heap:
        key = heapq.heappop(heap)[2]
        keys.append(key)
        succs = records[key][2]
        if succs:
            priority_table = priorities[key[0]]
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
    total = len(keys)
    if total != plan.total:
        raise SchedulingError(
            "ordered %d of %d task instances; precedence graph is inconsistent"
            % (total, plan.total)
        )
    rows = list(map(records.__getitem__, keys))
    # Built back to front, so each cluster keeps its smallest index.
    first_step = dict(zip(
        map(itemgetter(4), reversed(rows)), range(total - 1, -1, -1)
    ))
    cum_edges = list(
        accumulate(map(len, map(itemgetter(1), rows)), initial=0)
    )
    return keys, first_step, cum_edges


def _route(arch: Architecture, pair: tuple) -> Optional[tuple]:
    """``(link id, link type name, port bucket, link)`` of the link
    joining a PE pair, or None when none does.

    The first three fields are everything a transfer on the link
    reads: its timeline, and the type and port count (below two
    ports counts as two) its transfer time depends on.
    """
    link = arch.link_between(*pair)
    if link is None:
        return None
    ports = link.ports_used
    return (link.id, link.link_type.name, ports if ports > 2 else 2, link)


def _device_read(signature: tuple, cluster_name: str, mode: int) -> tuple:
    """What a decision on a programmable device reads about it, from
    the device's signature (:func:`repro.perf.fingerprint.footprint_view`).

    ``({mode: boot time}, its sorted items, own mode's boot time)``:
    the modes whose configuration carries ``cluster_name`` -- its own
    ``mode`` first, then its replicas in ascending order, as
    ``PEInstance.modes_of_cluster`` lists them -- and the boot time of
    ``mode``.
    """
    _, _, modes, boots = signature
    boot_of = dict(zip([index for index, _ in modes], boots))
    allowed = {mode: boot_of[mode]}
    for index, clusters in modes:
        if index != mode and cluster_name in clusters:
            allowed[index] = boot_of[index]
    return allowed, sorted(allowed.items()), allowed[mode]


def _cluster_signatures(
    plan, cluster_alloc: dict, pes: dict
) -> Dict[str, Optional[tuple]]:
    """What the scheduler reads about each of ``plan``'s clusters.

    Cluster name -> ``(pe id, mode, PEInstance.id, PE type name, PE
    kind)`` of its placement, or None while it is unplaced.  The type
    name fixes the execution time, the kind and the context-switch
    and preemption overheads (the library is checked separately).
    """
    sigs: Dict[str, Optional[tuple]] = {}
    for name in plan.clusters:
        placement = cluster_alloc.get(name)
        if placement is None:
            sigs[name] = None
            continue
        pe_id, mode = placement
        pe = pes.get(pe_id)
        if pe is None:
            sigs[name] = (pe_id, mode, None, None, None)
        else:
            pe_type = pe.pe_type
            sigs[name] = (pe_id, mode, pe.id, pe_type.name, pe_type.kind)
    return sigs


def _same_signature(new: Optional[tuple], old: Optional[tuple]) -> bool:
    """Whether two :func:`_cluster_signatures` entries make the same
    decisions.

    The id strings must be the same objects, not merely equal: reused
    decisions carry the trail's strings into the new schedule, and a
    pickle writes one copy per string object.
    """
    if new is None or old is None:
        return new is old
    return (
        new[0] is old[0]
        and new[2] is old[2]
        and new[2] is not None
        and new[1] == old[1]
        and new[3] == old[3]
    )


def _same_links(new: tuple, old: tuple) -> bool:
    """Whether two builds' link signatures are equal, each link id the
    same string object (see :func:`_same_signature`)."""
    return len(new) == len(old) and all(
        link[0] is then[0] and link == then for link, then in zip(new, old)
    )


def _resume_point(
    prior, order: tuple, sigs: dict, view: tuple, arch: Architecture,
    routes: dict, device_reads: dict, reads: list,
) -> int:
    """How many leading decisions this build makes exactly as the
    ``prior`` trail's build did.

    Decision *i* is reused only when it decides the trail's task *i*
    and every input it reads equals the trail's, so the answer is the
    smallest of:

    * the length of the common prefix of the two decision orders;
    * the first decision of every cluster whose
      :func:`_cluster_signatures` entry changed -- another PE
      instance, mode or PE type, or placed in one build only;
    * the first decision of every programmable-device cluster whose
      mode -> boot-time map, or own mode's boot time, changed;
    * the first decision that read each PE pair whose link id, type
      or port bucket (:func:`_route`) changed.

    Everything else a decision reads -- arrivals, execution times,
    payloads, deadlines and best-case transfer times -- is fixed by
    the plan and the library, which the caller checked, and the
    timelines then match by induction.

    A device read is a pure function of the device's signature, the
    cluster and its mode, so the trail's device memo carries over to
    ``device_reads`` for every cluster placed alike, re-derived only on
    a device whose signature changed.  The trail's PE-pair reads are
    walked up to the first change (routed again only while the link
    signatures differ), so ``routes`` fills, and ``reads`` logs,
    exactly the pairs the reused decisions read.
    """
    keys = order[0]
    reused = len(keys)
    if order is not prior.order:
        for index, (key, old) in enumerate(zip(keys, prior.order[0])):
            if key != old:
                reused = index
                break
    first_step = prior.order[1]
    old_sigs = prior.sigs
    replaced = set()
    for name, sig in sigs.items():
        if not _same_signature(sig, old_sigs[name]):
            replaced.add(name)
            step = first_step[name]
            if step < reused:
                reused = step
    devices, link_sigs = view
    old_devices, old_link_sigs = prior.view
    for akey, then in prior.device_reads.items():
        pe_id, cluster_name = akey
        if cluster_name in replaced:
            # Its first decision already bounds the resume point.
            continue
        signature = devices[pe_id]
        if signature != old_devices[pe_id]:
            now = _device_read(signature, cluster_name, sigs[cluster_name][1])
            if now != then:
                step = first_step[cluster_name]
                if step < reused:
                    reused = step
            then = now
        device_reads[akey] = then
    same_links = _same_links(link_sigs, old_link_sigs)
    links = arch.links
    for step, pair, then in prior.reads:
        if step >= reused:
            break
        if same_links:
            routes[pair] = then + (links[then[0]],)
            reads.append((step, pair, then))
            continue
        route = _route(arch, pair)
        if route is None:
            return step
        routes[pair] = route
        now = route[:3]
        reads.append((step, pair, now))
        # The link id must be the trail's string object (see
        # :func:`_same_signature`).
        if now[0] is not then[0] or now != then:
            return step
    return reused


def _head(steps: list, step: int) -> list:
    """The entries of a sorted list of decision indices below ``step``."""
    return steps[:bisect.bisect_left(steps, step)]


def _restore_prefix(
    prior, trail, step: int, schedule: Schedule, demand: dict,
    crossed: set, limit,
) -> None:
    """Put the ``prior`` trail's first ``step`` decisions into
    ``schedule`` and this build's ``trail``.

    Tasks and edges are the prior trail's own objects (never mutated
    once made), the first ``step`` tasks and the edges into them of
    its insertion-ordered dicts.  Demand is rebuilt from the demand
    log's running loads, so the floats and the first-touch order are
    identical; the violation log gives the crossed set, and raises
    :class:`ScheduleAbort` when the restored violations exceed
    ``limit``, at the same event and for the same reason as a
    from-scratch build.  Split, virtual-placement and ``place`` step
    lists are cut by bisection.  Serial timelines keep the trail
    intervals the restored decisions own, in their stored order; mode
    timelines replay their first ``place`` outcomes, one per restored
    task on the device.  Both timeline dicts keep their first-use
    order.
    """
    # Deferred: repro.perf imports this module.
    from repro.perf.fasttimeline import replay_mode_timeline, restore_timeline

    cut = (step,)
    events = prior.events[:bisect.bisect_left(prior.events, cut)]
    if len(events) > limit:
        for count, event in enumerate(events, 1):
            if count > limit:
                raise ScheduleAbort(event[1])
    trail.events = events
    crossed.update(event[2] for event in events if event[1] == "overload")
    log = trail.demand_log = prior.demand_log[
        :bisect.bisect_left(prior.demand_log, cut)
    ]
    if log:
        _, resources, loads = zip(*log)
        demand.update(zip(resources, loads))
    trail.declined = _head(prior.declined, step)
    trail.splits = _head(prior.splits, step)
    trail.virtual = _head(prior.virtual, step)

    old = prior.schedule
    tasks = schedule.tasks
    edges = schedule.edges
    tasks.update(islice(old.tasks.items(), step))
    edges.update(islice(old.edges.items(), prior.order[2][step]))
    whole = step == len(old.tasks)
    for timelines, new_timelines, owners in (
        (old.proc_timelines, schedule.proc_timelines, tasks),
        (old.link_timelines, schedule.link_timelines, edges),
    ):
        for resource, timeline in timelines.items():
            intervals = timeline.intervals
            if not whole:
                intervals = [iv for iv in intervals if iv.owner in owners]
            if intervals:
                new_timelines[resource] = restore_timeline(intervals)
    places = trail.places
    for pe_id, (on_device, outcomes) in prior.places.items():
        count = bisect.bisect_left(on_device, step)
        if count:
            outcomes = outcomes[:count]
            places[pe_id] = (on_device[:count], outcomes)
            schedule.ppe_timelines[pe_id] = replay_mode_timeline(outcomes)
