"""Cross-run caches for the list scheduler.

Every candidate evaluation re-runs the list scheduler
(:func:`repro.sched.scheduler.build_schedule`), and much of what a run
needs never changes across a synthesis: the explicit task instances
and their arrival times, the per-instance predecessor/successor keys
with edge payloads, each task's cluster, and the initial in-degrees.
Link transfer times are pure functions of (link type, port count,
payload).

:class:`SchedulerContext` -- owned by the
:class:`repro.perf.engine.IncrementalEngine` and threaded into
:class:`~repro.sched.scheduler.ScheduleRequest` -- caches all of the
above across runs:

* a **plan** per (spec, association, clustering, graph filter): the
  instance records, seed order, and in-degree template, plus each
  task's execution times as first read: on each PE type it is placed
  on, and its smallest one, which a virtual (not yet allocated)
  placement runs for.  Plans are stamped out of each graph's
  :class:`~repro.graph.taskgraph.GraphTables` (its plan rows -- each
  task's predecessors with edge bytes, successors and task object --
  and its deadline rows), which the context's
  :class:`~repro.graph.taskgraph.GraphTableCache` derives once and
  again only when the graph changes; a plan looks up each task's
  cluster name once per graph;
* **transfer-time memos** for ``LinkType.comm_time`` and the
  best-case estimator used for virtually placed endpoints;
* a **trail** of the last finished build of each of the
  :data:`TRAIL_CACHE_MAX_ENTRIES` most recently built plans: the
  schedule itself; its decision order with the priority values it
  was computed from; its view of the devices and links (the PE and
  link signatures of the component fingerprint,
  :func:`repro.perf.fingerprint.footprint_view`); each cluster's
  placement and PE type; its memo of the programmable devices' mode
  and boot-time maps, one per device and cluster; each routed PE
  pair's link signature, logged at the decision that first read it;
  and, indexed by decision, what the schedule alone cannot tell (the
  outcomes of every mode-timeline ``place``, the decisions that
  declined or took a preemptive split or placed a task virtually, the
  running copy-0 demand and the violations a bound counts).

PE-pair links are memoized by the architecture itself
(``Architecture.link_between``).

Consecutive builds of one plan usually differ by one cluster's
placement, so the scheduler resumes each build from its plan's trail
(:func:`repro.sched.scheduler.build_schedule`).  The decision order
depends only on the plan and its priorities, so a build under the
trail's priority values reuses the trail's order.  The first decision
that differs is the earliest of: where the two orders part, the first
decision of a re-placed cluster or of one whose device read changed,
and the first read of a changed PE pair; the trail's device memo
carries over to the new build for every cluster placed alike.
Everything before that decision is restored by slicing the trail's
dicts and logs, and the build schedules on from there.
A trail is never kept from a build whose timelines degraded.  A
trail copies every value it compares as its build reads it (the
allocation loop reverts the live architecture afterwards) and pins its
plan, whose cache key is made of ``id()`` values.

Every schedule is built onto the production timeline pair,
:class:`~repro.perf.fasttimeline.FastTimeline` for processors and
links and :class:`~repro.perf.fasttimeline.FastPpeModeTimeline` for
programmable devices.  The scheduler makes every decision -- decision
order, iteration orders, epsilon comparisons, tie-breaks -- exactly
as the reference loop in ``tests/sched/reference_scheduler.py`` does
over the linear reference timelines; the equivalence suites pin the
two to byte-identical schedules and results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.graph.taskgraph import GraphTableCache

#: Plans are tiny next to schedule fragments, but the scoped sub-spec
#: cache they key off is itself LRU-bounded -- keep a little headroom.
PLAN_CACHE_MAX_ENTRIES = 128

#: Trails kept per context, least recently built plan evicted first.
#: On NGXM@0.05 eight reuse as many decisions as an unbounded cache
#: (61.1 %); two reuse 54.4 %.
TRAIL_CACHE_MAX_ENTRIES = 8


class _Plan:
    """Spec-derived constants for one (spec, assoc, filter) triple."""

    __slots__ = (
        "records", "roots", "indegree", "total", "keepalive", "wcet",
        "min_wcet", "deadline_rows", "ncopies", "clusters", "graphs",
        "_deadline_by_key",
    )

    def __init__(
        self, records, roots, indegree, total, keepalive,
        deadline_rows, ncopies,
    ):
        """Freeze one (spec, assoc, filter) triple's plan tables."""
        #: key -> (arrival, preds, succs, task, cluster_name); preds
        #: are (pred_key, bytes, edge_key) in ``graph.predecessors``
        #: order, succs are (succ_key, succ_name) in
        #: ``graph.successors`` order.
        self.records = records
        #: zero-in-degree keys in heap-seeding order (explicit copy
        #: major, topological order minor).
        self.roots = roots
        #: in-degree template, copied for every decision order.
        self.indegree = indegree
        self.total = total
        #: strong refs pinning the id()-keyed cache inputs alive.
        self.keepalive = keepalive
        #: (task object id, PE type name) -> worst-case execution
        #: time.  Static per plan (execution times never change, and
        #: ``keepalive`` pins the spec's task objects), and most
        #: placements are stable across the runs sharing a plan.
        self.wcet: Dict[tuple, float] = {}
        #: task object id -> ``task.min_exec_time``, the duration of a
        #: virtual (not yet allocated) placement; static the same way.
        self.min_wcet: Dict[int, float] = {}
        #: graph name -> ((instance key, absolute deadline), ...) in
        #: the exact insertion order of
        #: :func:`repro.sched.finish_time.deadline_lateness`
        #: (explicit copy major, deadline task minor); the absolute
        #: deadline is the same ``arrival + relative`` float.
        self.deadline_rows = deadline_rows
        #: graph name -> association copy count (demand multiplier).
        self.ncopies = ncopies
        #: every cluster the plan's tasks belong to, first-seen order.
        self.clusters = tuple(dict.fromkeys(r[4] for r in records.values()))
        #: every graph the plan's tasks belong to, first-seen order.
        self.graphs = tuple(dict.fromkeys(key[0] for key in records))
        #: lazy flat view of ``deadline_rows`` for the bound-abort
        #: deadline check (key -> absolute deadline).
        self._deadline_by_key = None

    def deadline_map(self) -> dict:
        """Instance key -> absolute deadline, flattened lazily from
        ``deadline_rows`` (same floats, so the inline deadline check
        matches the post-pass lateness exactly)."""
        flat = self._deadline_by_key
        if flat is None:
            flat = {}
            for rows in self.deadline_rows.values():
                for row_key, absolute in rows:
                    flat[row_key] = absolute
            self._deadline_by_key = flat
        return flat


def _build_plan(request, tables: GraphTableCache) -> _Plan:
    """The plan of ``request``, stamped out of each graph's
    :attr:`~repro.graph.taskgraph.GraphTables.plan_rows` and
    ``deadline_rows`` in ``tables``, with each task's cluster name
    looked up once per graph."""
    spec = request.spec
    clustering = request.clustering
    graphs = request.graphs
    records: Dict[tuple, tuple] = {}
    roots: List[tuple] = []
    indegree: Dict[tuple, int] = {}
    #: graph name -> plan rows, each with its task's cluster name.
    rows_of: Dict[str, tuple] = {}
    for instance in request.assoc.iter_explicit():
        name = instance.graph
        if graphs is not None and name not in graphs:
            continue
        copy = instance.copy
        arrival = instance.arrival
        task_rows = rows_of.get(name)
        if task_rows is None:
            task_rows = rows_of[name] = tuple(
                row + (clustering.cluster_of(name, row[0]).name,)
                for row in tables(spec.graph(name)).plan_rows
            )
        for task_name, preds, succs, task, cluster_name in task_rows:
            key = (name, copy, task_name)
            records[key] = (
                arrival,
                tuple(
                    (
                        (name, copy, pred_name),
                        bytes_,
                        (name, copy, pred_name, task_name),
                    )
                    for pred_name, bytes_ in preds
                ),
                tuple(
                    ((name, copy, succ_name), succ_name) for succ_name in succs
                ),
                task,
                cluster_name,
            )
            indegree[key] = len(preds)
            if not preds:
                roots.append(key)
    deadline_rows: Dict[str, tuple] = {}
    ncopies: Dict[str, int] = {}
    for name in spec.graph_names():
        if graphs is not None and name not in graphs:
            continue
        deadline_tasks = tables(spec.graph(name)).deadline_rows
        rows = []
        for instance in request.assoc.explicit_copies(name):
            arrival = instance.arrival
            for task_name, rel_deadline in deadline_tasks:
                rows.append((
                    (name, instance.copy, task_name),
                    arrival + rel_deadline,
                ))
        deadline_rows[name] = tuple(rows)
        ncopies[name] = request.assoc.n_copies(name)
    return _Plan(
        records, roots, indegree, len(records),
        (spec, request.assoc, clustering),
        deadline_rows, ncopies,
    )


class Trail:
    """One build of a plan, kept to resume the next one.

    :func:`repro.sched.scheduler.build_schedule` makes one when a build
    starts, appends to its logs as the build decides, and keeps it when
    the build ends; it is never mutated afterwards.  The schedule's
    task, edge and interval objects are immutable once made, so
    resumed schedules share them.  Every log entry starts with the
    index of the decision that made it, and the step lists are sorted,
    so the state as of any decision is a bisection away.
    """

    __slots__ = (
        "plan", "library", "preemption", "order", "priorities", "sigs",
        "view", "schedule", "device_reads", "reads", "places", "declined",
        "splits", "virtual", "demand_log", "events",
    )

    def __init__(
        self, plan, library, preemption, order, priorities, sigs, view,
    ) -> None:
        """Start one build's record (see the attribute comments)."""
        #: the plan built (pinned: plan keys are made of ``id()``s).
        self.plan = plan
        self.library = library
        self.preemption = preemption
        #: ``(keys, first_step, cum_edges)`` of
        #: :func:`repro.sched.scheduler._decision_order`.
        self.order = order
        #: graph name -> {task name: priority}: copies of the values
        #: ``order`` was computed from.
        self.priorities = priorities
        #: cluster name -> placement signature (see
        #: :func:`repro.sched.scheduler._cluster_signatures`).
        self.sigs = sigs
        #: ``(pe id -> PE signature, link signatures)``: the build's
        #: view of its footprint's devices and links, taken from the
        #: component fingerprint (see
        #: :func:`repro.perf.fingerprint.footprint_view`).
        self.view = view
        #: the finished schedule.
        self.schedule = None
        #: (pe id, cluster) -> ``({mode: boot time}, its sorted items,
        #: own mode's boot time)``: the build's memo of
        #: :func:`repro.sched.scheduler._device_read`, one entry per
        #: programmable device and cluster its decisions placed.
        self.device_reads: Dict[tuple, tuple] = {}
        #: the PE pairs the decisions routed, each at its first read:
        #: ``(step, (pe id, pe id), (link id, link type name, port
        #: bucket))``.
        self.reads: List[tuple] = []
        #: programmable PE id -> (decision indices, ``record``
        #: outcomes) of its mode timeline's ``place`` calls.
        self.places: Dict[str, tuple] = {}
        #: decision indices that declined / took a preemptive split,
        #: and of virtual placements.
        self.declined: List[int] = []
        self.splits: List[int] = []
        self.virtual: List[int] = []
        #: ``(step, resource, running load)`` per copy-0 demand update.
        self.demand_log: List[tuple] = []
        #: ``(step, "overload", resource)`` per overload crossing and
        #: ``(step, "deadline", None)`` per deadline miss, in the order
        #: a bound counts them.
        self.events: List[tuple] = []


class SchedulerContext:
    """Cross-run scheduler caches owned by one incremental engine."""

    def __init__(self) -> None:
        """Create empty plan/transfer-time/trail caches."""
        self._plans: "OrderedDict[tuple, _Plan]" = OrderedDict()
        #: Each graph's plan and deadline rows, derived once and again
        #: only after the graph changed; held for the engine's lifetime
        #: and read under the lock.
        self._tables = GraphTableCache()
        self._lock = threading.Lock()
        self._library = None
        self._comm: Dict[Tuple[str, int], float] = {}
        self._best_comm: Dict[int, float] = {}
        #: id(plan) -> Trail; the trail pins its plan, so the id stays
        #: unique while the entry lives.
        self._trails: "OrderedDict[int, Trail]" = OrderedDict()

    # ------------------------------------------------------------------
    def trail_for(self, plan) -> "Optional[Trail]":
        """The trail of ``plan``'s last finished build, if kept."""
        with self._lock:
            trail = self._trails.get(id(plan))
            if trail is not None:
                self._trails.move_to_end(id(plan))
        return trail

    def keep_trail(self, trail: Trail) -> None:
        """Keep ``trail`` for its plan's next build, unless one of its
        timelines degraded (resuming restores the non-degraded
        layouts only)."""
        schedule = trail.schedule
        for timelines in (
            schedule.proc_timelines, schedule.link_timelines,
            schedule.ppe_timelines,
        ):
            for timeline in timelines.values():
                if timeline._degraded:
                    return
        key = id(trail.plan)
        with self._lock:
            self._trails[key] = trail
            self._trails.move_to_end(key)
            while len(self._trails) > TRAIL_CACHE_MAX_ENTRIES:
                self._trails.popitem(last=False)

    # ------------------------------------------------------------------
    def plan_for(self, request) -> _Plan:
        """The cached (or freshly built) plan for a request's
        (spec, assoc, clustering, graphs) identity."""
        key = (
            id(request.spec), id(request.assoc), id(request.clustering),
            request.graphs,
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
        if plan is not None:
            request.tracer.incr("perf.plan.hits")
            return plan
        request.tracer.incr("perf.plan.misses")
        with self._lock:
            plan = _build_plan(request, self._tables)
            self._plans[key] = plan
            while len(self._plans) > PLAN_CACHE_MAX_ENTRIES:
                self._plans.popitem(last=False)
        return plan

    # ------------------------------------------------------------------
    def _sync_library(self, library) -> None:
        if library is not self._library:
            self._library = library
            self._comm = {}
            self._best_comm = {}

    def best_comm(self, library, bytes_: int) -> float:
        """Best-case transfer estimate for an edge touching a virtually
        placed task: the fastest link type in the library."""
        self._sync_library(library)
        try:
            return self._best_comm[bytes_]
        except KeyError:
            links = library.links_by_cost()
            if bytes_ == 0 or not links:
                value = 0.0
            else:
                value = min(l.comm_time(bytes_) for l in links)
            self._best_comm[bytes_] = value
            return value
