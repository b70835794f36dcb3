"""Cross-run caches for the list scheduler.

Every candidate evaluation re-runs the list scheduler
(:func:`repro.sched.scheduler.build_schedule`), and much of what a run
needs never changes across a synthesis: the explicit task instances
and their arrival times, the per-instance predecessor/successor keys
with edge payloads, each task's cluster, and the initial in-degrees.
PE-to-PE routes (``Architecture.find_link_between`` sorts the link
list per call) and link transfer times are pure functions of the link
topology and of (link type, payload).

:class:`SchedulerContext` -- owned by the
:class:`repro.perf.engine.IncrementalEngine` and threaded into
:class:`~repro.sched.scheduler.ScheduleRequest` -- caches all of the
above across runs:

* a **plan** per (spec, association, clustering, graph filter): the
  instance records, seed order, and in-degree template;
* a **route table** per architecture, invalidated exactly by
  ``Architecture.topo_version`` (bumped on every link attach/detach/
  create/delete, including copy-on-write reverts);
* **transfer-time memos** for ``LinkType.comm_time`` and the
  best-case estimator used for virtually placed endpoints;
* the timeline factory pair every schedule it builds uses:
  :class:`~repro.perf.fasttimeline.FastTimeline` for processors and
  links and :class:`~repro.perf.fasttimeline.FastPpeModeTimeline`
  for programmable devices.

The scheduler makes every decision -- heap keys, iteration orders,
epsilon comparisons, tie-breaks -- exactly as the reference loop in
``tests/sched/reference_scheduler.py`` does over the linear reference
timelines; the equivalence suites pin the two to byte-identical
schedules and results.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.perf.fasttimeline import FastPpeModeTimeline, FastTimeline

#: Plans are tiny next to schedule fragments, but the scoped sub-spec
#: cache they key off is itself LRU-bounded -- keep a little headroom.
PLAN_CACHE_MAX_ENTRIES = 128


class _Plan:
    """Spec-derived constants for one (spec, assoc, filter) triple."""

    __slots__ = (
        "records", "roots", "indegree", "total", "keepalive", "wcet",
        "deadline_rows", "ncopies", "_deadline_by_key",
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
        #: in-degree template, copied at the start of every run.
        self.indegree = indegree
        self.total = total
        #: strong refs pinning the id()-keyed cache inputs alive.
        self.keepalive = keepalive
        #: (task object id, PE type name) -> worst-case execution
        #: time.  Static per plan (execution times never change, and
        #: ``keepalive`` pins the spec's task objects), and most
        #: placements are stable across the runs sharing a plan.
        self.wcet: Dict[tuple, float] = {}
        #: graph name -> ((instance key, absolute deadline), ...) in
        #: the exact insertion order of
        #: :func:`repro.sched.finish_time.deadline_lateness`
        #: (explicit copy major, deadline task minor); the absolute
        #: deadline is the same ``arrival + relative`` float.
        self.deadline_rows = deadline_rows
        #: graph name -> association copy count (demand multiplier).
        self.ncopies = ncopies
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


def _build_plan(request) -> _Plan:
    spec = request.spec
    clustering = request.clustering
    records: Dict[tuple, tuple] = {}
    roots: List[tuple] = []
    indegree: Dict[tuple, int] = {}
    for instance in request.assoc.iter_explicit():
        if request.graphs is not None and instance.graph not in request.graphs:
            continue
        graph = spec.graph(instance.graph)
        for task_name in graph.topological_order():
            key = (instance.graph, instance.copy, task_name)
            preds = []
            for pred_name in graph.predecessors(task_name):
                edge = graph.edge(pred_name, task_name)
                preds.append((
                    (instance.graph, instance.copy, pred_name),
                    edge.bytes_,
                    (instance.graph, instance.copy, pred_name, task_name),
                ))
            succs = tuple(
                ((instance.graph, instance.copy, succ_name), succ_name)
                for succ_name in graph.successors(task_name)
            )
            cluster = clustering.cluster_of(instance.graph, task_name)
            records[key] = (
                instance.arrival,
                tuple(preds),
                succs,
                graph.task(task_name),
                cluster.name,
            )
            indegree[key] = len(preds)
            if not preds:
                roots.append(key)
    deadline_rows: Dict[str, tuple] = {}
    ncopies: Dict[str, int] = {}
    for name in spec.graph_names():
        if request.graphs is not None and name not in request.graphs:
            continue
        graph = spec.graph(name)
        deadline_tasks = [
            (t, graph.effective_deadline(t)) for t in graph.deadline_tasks()
        ]
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


class SchedulerContext:
    """Cross-run scheduler caches owned by one incremental engine.

    Every schedule built over a context uses its timeline factory
    pair, :attr:`timeline_cls` / :attr:`ppe_timeline_cls`; an instance
    attribute overrides either (the test suite's timeline op recorder
    does, to capture traces for the differential oracle).
    """

    timeline_cls = FastTimeline
    ppe_timeline_cls = FastPpeModeTimeline

    def __init__(self) -> None:
        """Create empty plan/route/transfer-time caches."""
        self._plans: "OrderedDict[tuple, _Plan]" = OrderedDict()
        self._lock = threading.Lock()
        #: Architecture -> [topo_version, {(pe_a, pe_b): link | None}].
        self._routes: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._library = None
        self._comm: Dict[Tuple[str, int], float] = {}
        self._best_comm: Dict[int, float] = {}

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
        plan = _build_plan(request)
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > PLAN_CACHE_MAX_ENTRIES:
                self._plans.popitem(last=False)
        return plan

    # ------------------------------------------------------------------
    def route_table(self, arch) -> dict:
        """The (pe_a, pe_b) -> link memo for ``arch``'s *current* link
        topology, invalidated by ``Architecture.topo_version``.  The
        scheduler never mutates the architecture, so one lookup per run
        suffices -- callers index the returned dict directly."""
        entry = self._routes.get(arch)
        if entry is None or entry[0] != arch.topo_version:
            entry = [arch.topo_version, {}]
            with self._lock:
                self._routes[arch] = entry
        return entry[1]

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
