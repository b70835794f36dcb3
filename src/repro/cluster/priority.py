"""Deadline-based priority levels for tasks and edges.

Section 5: "The priority level of a task is an indication of the
longest path from the task to a task with a specified deadline in terms
of computation and communication costs as well as the deadline."
Before allocation, maximum execution and communication times along the
longest path are summed and the deadline subtracted; after each
allocation (and after clustering) the levels are recomputed with the
actual times of allocated resources and zeroed intra-cluster
communication.

A larger priority level means the task is more urgent (less slack).

A synthesis runs thousands of passes over inputs that never change
during it: each graph's topological order, successor edges and
effective deadlines, each task's library maximum and each payload's
slowest transfer time.  A pass reads the graph's rows from its
context's :class:`~repro.graph.taskgraph.GraphTableCache`, and the
pessimistic estimators memoize their maxima, so every pass computes the
same floats from stored inputs.  Contexts derived from a run's
pessimistic context share its table cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import SpecificationError
from repro.graph.edge import Edge
from repro.graph.task import Task
from repro.graph.taskgraph import GraphTableCache, TaskGraph
from repro.resources.library import ResourceLibrary

#: Priority assigned to tasks from which no deadline is reachable.
#: They still need scheduling but never constrain feasibility.
NO_DEADLINE_PRIORITY = float("-inf")


@dataclass
class PriorityContext:
    """Time estimators used for priority computation.

    ``exec_time(graph, task)`` and ``comm_time(graph, edge)`` return the
    execution/communication durations priorities should assume.  The
    defaults implement the pre-allocation pessimistic estimate: a
    task's maximum execution time over allowed PE types and an edge's
    maximum communication time over library link types (with assumed
    port counts).  CRUSADE swaps in allocation-aware estimators as the
    architecture takes shape.

    ``tables`` supplies each graph's static rows; a context derived
    from another passes the other's cache on.
    """

    exec_time: Callable[[TaskGraph, Task], float]
    comm_time: Callable[[TaskGraph, Edge], float]
    tables: GraphTableCache = field(default_factory=GraphTableCache)

    @classmethod
    def pessimistic(cls, library: ResourceLibrary) -> "PriorityContext":
        """Pre-allocation estimators using library maxima.

        Each task's maximum and each payload's slowest transfer time is
        computed once, by the same expression, and then read back: the
        library and the tasks' execution vectors never change.  Tasks
        are keyed by identity (their vectors are dicts, so they do not
        hash), and each entry holds its task so the id stays unique.
        """
        link_types = library.links_by_cost()
        if not link_types:
            raise SpecificationError("library has no link types")
        #: id(task) -> (task, largest usable WCET).
        maxima: Dict[int, Tuple[Task, float]] = {}
        #: payload bytes -> slowest library transfer time.
        slowest: Dict[int, float] = {}

        def exec_time(graph: TaskGraph, task: Task) -> float:
            entry = maxima.get(id(task))
            if entry is not None:
                return entry[1]
            usable = [
                wcet
                for pe_name, wcet in task.exec_times.items()
                if wcet is not None
                and task.can_run_on(pe_name)
                and library.has_pe_type(pe_name)
            ]
            if not usable:
                raise SpecificationError(
                    "task %r has no usable PE type in library" % (task.name,)
                )
            value = max(usable)
            maxima[id(task)] = (task, value)
            return value

        def comm_time(graph: TaskGraph, edge: Edge) -> float:
            bytes_ = edge.bytes_
            if bytes_ == 0:
                return 0.0
            value = slowest.get(bytes_)
            if value is None:
                value = slowest[bytes_] = max(
                    l.comm_time(bytes_) for l in link_types
                )
            return value

        return cls(exec_time=exec_time, comm_time=comm_time)


def compute_task_priorities(
    graph: TaskGraph, context: PriorityContext
) -> Dict[str, float]:
    """Priority level of every task in ``graph``.

    For a task ``t`` with effective deadline ``d``:
        ``prio(t) = exec(t) - d``
    and for every task with successors:
        ``prio(t) = max(prio(t), exec(t) + max_s(comm(t, s) + prio(s)))``
    evaluated in reverse topological order.  Tasks from which no
    deadline is reachable get :data:`NO_DEADLINE_PRIORITY`.
    """
    exec_of = context.exec_time
    comm_of = context.comm_time
    rows = context.tables(graph).priority_rows
    priorities: Dict[str, float] = {}
    for task_name, task, deadline, succ_edges in rows:
        exec_time = exec_of(graph, task)
        best = NO_DEADLINE_PRIORITY
        if deadline is not None:
            best = exec_time - deadline
        for succ_name, edge in succ_edges:
            succ_priority = priorities[succ_name]
            if succ_priority == NO_DEADLINE_PRIORITY:
                continue
            candidate = exec_time + comm_of(graph, edge) + succ_priority
            if candidate > best:
                best = candidate
        priorities[task_name] = best
    return priorities


def recompute_priorities(
    spec,
    context: PriorityContext,
    previous: Dict[str, Dict[str, float]],
    dirty,
    tracer=None,
) -> Dict[str, Dict[str, float]]:
    """Priority levels for every graph, recomputing only ``dirty`` ones.

    After a placement, a graph none of whose clusters sit on a touched
    PE sees identical estimator inputs (its placements, execution
    times and link choices are unchanged), so its levels from
    ``previous`` are reused verbatim.  The caller is responsible for
    the dirty set being conservative -- see
    :attr:`repro.perf.cow.AppliedOption.touched_pes`.
    """
    updated: Dict[str, Dict[str, float]] = {}
    for name in spec.graph_names():
        if name in dirty:
            if tracer is not None:
                tracer.incr("perf.priorities.recomputed")
            updated[name] = compute_task_priorities(spec.graph(name), context)
        else:
            if tracer is not None:
                tracer.incr("perf.priorities.reused")
            updated[name] = previous[name]
    return updated


def compute_edge_priorities(
    graph: TaskGraph,
    context: PriorityContext,
    task_priorities: Optional[Dict[str, float]] = None,
) -> Dict[Tuple[str, str], float]:
    """Priority level of every edge: ``comm(e) + prio(dst)``.

    Edges into no-deadline tasks inherit :data:`NO_DEADLINE_PRIORITY`.
    """
    if task_priorities is None:
        task_priorities = compute_task_priorities(graph, context)
    edge_priorities: Dict[Tuple[str, str], float] = {}
    for edge in graph.iter_edges():
        dst_priority = task_priorities[edge.dst]
        if dst_priority == NO_DEADLINE_PRIORITY:
            edge_priorities[edge.key] = NO_DEADLINE_PRIORITY
        else:
            edge_priorities[edge.key] = context.comm_time(graph, edge) + dst_priority
    return edge_priorities
