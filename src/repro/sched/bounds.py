"""Admissible lower bounds on schedule finish times and resource demand.

These are the scheduler-side primitives of the candidate pruning layer
(:mod:`repro.perf.prune`): a critical-path finish-time floor that
provably never exceeds what :func:`repro.sched.scheduler.build_schedule`
would produce for the same architecture, so a candidate whose floor
already misses a deadline can be discarded without scheduling at all,
and per-resource demand floors that prove an overload the same way.

Admissibility argument
----------------------

Every inequality below mirrors an identical-or-looser constraint the
scheduler enforces:

* A task placed on a **processor** occupies its timeline for
  ``wcet + context_switch_time`` (more when the restricted-preemption
  path splits it), so its finish is at least ``start`` plus that
  duration.  **ASIC** tasks run contention-free for exactly ``wcet``;
  **PPE** tasks occupy a mode window for exactly ``wcet``; tasks of
  unallocated clusters run *virtually* for ``task.min_exec_time``.
* A task starts no earlier than its copy's arrival, and no earlier
  than any predecessor's finish (inter-task communication and mode
  reboots only add non-negative time, so the floor prices both at
  zero).

Floating-point safety: IEEE-754 rounding is monotone, and the floor
is accumulated with the same operation shapes (``max`` over
predecessors, then one addition) the scheduler uses, so the copy-0
floor is dominated by the real schedule *bit-for-bit*, not merely up
to an epsilon.  Demand floors are summed in a different order than
:func:`repro.sched.finish_time.resource_demand`, so their consumers
apply a small relative margin (see :mod:`repro.perf.prune`).

Static inputs: the floor walks a graph's
:class:`~repro.graph.taskgraph.GraphTables` -- topological rows with
predecessor tuples, the deadline tasks with their effective deadlines,
each task's smallest WCET -- instead of re-deriving them on every
call.  The candidate pruner passes the run's tables; a caller that
passes none gets tables derived for the call.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.graph.taskgraph import GraphTables, TaskGraph
from repro.resources.pe import PEKind
from repro.units import TIME_EPS


def best_case_exec_time(task, pe: PEInstance) -> float:
    """The exact duration floor the scheduler charges for ``task`` on
    ``pe``, the instance hosting the task's cluster.  A virtual
    (not-yet-allocated) placement runs for the task's smallest WCET.
    """
    wcet = task.wcet_on(pe.pe_type.name)
    if pe.pe_type.kind is PEKind.PROCESSOR:
        return wcet + pe.pe_type.context_switch_time
    return wcet


def finish_time_floor(
    graph: TaskGraph,
    arch: Architecture,
    clustering: ClusteringResult,
    tables: Optional[GraphTables] = None,
) -> Dict[str, float]:
    """Copy-0 absolute finish-time floors for every task of ``graph``.

    A longest-path pass over the DAG: each task's floor is the latest
    predecessor floor (or the graph's arrival) plus the best-case
    duration of its placement.  The value for each task is a true
    lower bound on the finish time of its copy-0 instance in any
    schedule the scheduler can emit for ``arch`` (see the module
    docstring for the argument).  ``tables`` are ``graph``'s current
    tables, derived here when not given.
    """
    if tables is None:
        tables = GraphTables(graph)
    est = graph.est
    graph_name = graph.name
    task_to_cluster = clustering.task_to_cluster
    cluster_alloc = arch.cluster_alloc
    floor: Dict[str, float] = {}
    for name, task, preds in tables.topo_rows:
        cluster_name = task_to_cluster.get((graph_name, name))
        placement = (
            None if cluster_name is None else cluster_alloc.get(cluster_name)
        )
        if placement is None:
            duration = tables.min_wcet(task)
        else:
            duration = best_case_exec_time(task, arch.pe(placement[0]))
        base = est
        for pred in preds:
            if floor[pred] > base:
                base = floor[pred]
        floor[name] = base + duration
    return floor


def deadline_floor_stats(
    graph: TaskGraph,
    arch: Architecture,
    clustering: ClusteringResult,
    tables: Optional[GraphTables] = None,
) -> Tuple[int, float]:
    """(missed deadline count, total lateness) of the copy-0 floor.

    The admissible deadline statistic the candidate pruner consumes:
    for each deadline-carrying task, ``finish_time_floor - (est +
    deadline)``, counted/summed when above ``TIME_EPS``.  ``tables``
    as for :func:`finish_time_floor`.
    """
    if tables is None:
        tables = GraphTables(graph)
    floor = finish_time_floor(graph, arch, clustering, tables)
    est = graph.est
    misses = 0
    lateness = 0.0
    for task_name, deadline in tables.deadline_rows:
        late = floor[task_name] - (est + deadline)
        if late > TIME_EPS:
            misses += 1
            lateness += late
    return misses, lateness


def demand_floor(
    arch: Architecture,
    clustering: ClusteringResult,
    spec: SystemSpec,
    assoc: AssociationArray,
    graph_names: Optional[Iterable[str]] = None,
    totals: Optional[dict] = None,
) -> Dict[str, float]:
    """Per-serial-resource busy-time floors over the hyperperiod.

    For every allocated cluster (optionally restricted to
    ``graph_names``), each task must occupy its processor for at least
    ``wcet + context_switch_time`` (exactly ``wcet`` on a PPE) per
    copy; ASICs have no serial timeline and are skipped, as are link
    demands (communication floors are zero).  The result is summed in
    deterministic cluster order, which differs from the schedule
    insertion order :func:`~repro.sched.finish_time.resource_demand`
    uses -- consumers must leave a small relative margin.

    ``totals`` memoizes each cluster's total keyed by (cluster, PE
    type, copy count): the inner loop's inputs never change during a
    synthesis, only which clusters are allocated where.  Callers pass
    one dict per clustering for the whole run
    (:meth:`~repro.graph.taskgraph.GraphTableCache.demand_totals`);
    None memoizes for this call only.  Totals are computed by the
    same sequential loop either way, so memoized and fresh values are
    the same floats.  ``copies`` is part of the key because scoped
    associations multiply each term before summing, so totals differ
    per copy count bit-for-bit.
    """
    wanted = None if graph_names is None else set(graph_names)
    if totals is None:
        totals = {}
    demand: Dict[str, float] = {}
    for cluster_name in sorted(arch.cluster_alloc):
        pe_id, _ = arch.cluster_alloc[cluster_name]
        cluster = clustering.clusters[cluster_name]
        if wanted is not None and cluster.graph not in wanted:
            continue
        pe = arch.pe(pe_id)
        kind = pe.pe_type.kind
        if kind is PEKind.ASIC:
            continue
        pe_type_name = pe.pe_type.name
        copies = assoc.n_copies(cluster.graph)
        mkey = (cluster_name, pe_type_name, copies)
        total = totals.get(mkey)
        if total is None:
            ctx = (
                pe.pe_type.context_switch_time
                if kind is PEKind.PROCESSOR else 0.0
            )
            graph = spec.graph(cluster.graph)
            total = 0.0
            for task_name in cluster.task_names:
                total += (
                    graph.task(task_name).wcet_on(pe_type_name) + ctx
                ) * copies
            totals[mkey] = total
        demand[pe_id] = demand.get(pe_id, 0.0) + total
    return demand
