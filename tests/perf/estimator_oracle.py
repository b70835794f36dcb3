"""Per-call derivations of the estimators' static inputs: the oracle
for the tables a synthesis derives once.

Production code reads each graph's rows from a
:class:`~repro.graph.taskgraph.GraphTables`, memoizes the pessimistic
maxima per run, and keeps each task's smallest WCET on the tables and
on the scheduler plan.  The functions here are the same estimators
written the direct way: every call re-derives the topological order,
successor and predecessor lists, effective deadlines and execution-time
maxima and minima from :class:`~repro.graph.task.Task` and
:class:`~repro.graph.taskgraph.TaskGraph`.  ``tests/perf/
test_static_tables.py`` holds the two to bit-for-bit equal values.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster.priority import NO_DEADLINE_PRIORITY, PriorityContext
from repro.errors import SpecificationError
from repro.resources.pe import PEKind
from repro.units import TIME_EPS


def min_exec_time(task) -> float:
    """Smallest WCET across the task's allowed PE types."""
    allowed = [
        wcet
        for pe_type, wcet in task.exec_times.items()
        if wcet is not None and task.can_run_on(pe_type)
    ]
    if not allowed:
        raise SpecificationError(
            "task %r cannot execute on any PE type" % (task.name,)
        )
    return min(allowed)


def pessimistic_context(library) -> PriorityContext:
    """Pre-allocation estimators using library maxima, with no memo."""
    link_types = library.links_by_cost()
    if not link_types:
        raise SpecificationError("library has no link types")

    def exec_time(graph, task):
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
        return max(usable)

    def comm_time(graph, edge):
        if edge.bytes_ == 0:
            return 0.0
        return max(l.comm_time(edge.bytes_) for l in link_types)

    return PriorityContext(exec_time=exec_time, comm_time=comm_time)


def allocation_aware_context(library, arch, clustering) -> PriorityContext:
    """Placement-aware estimators, every lookup made per call."""
    pessimistic = pessimistic_context(library)

    def exec_time(graph, task):
        cluster_name = clustering.task_to_cluster.get((graph.name, task.name))
        if cluster_name is not None and arch.is_allocated(cluster_name):
            pe_id, _ = arch.placement_of(cluster_name)
            return task.wcet_on(arch.pe(pe_id).pe_type.name)
        return pessimistic.exec_time(graph, task)

    def comm_time(graph, edge):
        src_cluster = clustering.task_to_cluster.get((graph.name, edge.src))
        dst_cluster = clustering.task_to_cluster.get((graph.name, edge.dst))
        if src_cluster is not None and src_cluster == dst_cluster:
            return 0.0
        if (
            src_cluster is not None
            and dst_cluster is not None
            and arch.is_allocated(src_cluster)
            and arch.is_allocated(dst_cluster)
        ):
            src_pe, _ = arch.placement_of(src_cluster)
            dst_pe, _ = arch.placement_of(dst_cluster)
            if src_pe == dst_pe or edge.bytes_ == 0:
                return 0.0
            link = arch.find_link_between(src_pe, dst_pe)
            if link is not None:
                return link.comm_time(edge.bytes_)
        return pessimistic.comm_time(graph, edge)

    return PriorityContext(exec_time=exec_time, comm_time=comm_time)


def task_priorities(graph, context) -> Dict[str, float]:
    """The priority pass, querying the graph for every task."""
    priorities: Dict[str, float] = {}
    for task_name in reversed(graph.topological_order()):
        task = graph.task(task_name)
        exec_time = context.exec_time(graph, task)
        best = NO_DEADLINE_PRIORITY
        deadline = graph.effective_deadline(task_name)
        if deadline is not None:
            best = exec_time - deadline
        for succ_name in graph.successors(task_name):
            succ_priority = priorities[succ_name]
            if succ_priority == NO_DEADLINE_PRIORITY:
                continue
            edge = graph.edge(task_name, succ_name)
            candidate = exec_time + context.comm_time(graph, edge) + succ_priority
            if candidate > best:
                best = candidate
        priorities[task_name] = best
    return priorities


def _best_case_exec_time(task, pe) -> float:
    if pe is None:
        return min_exec_time(task)
    wcet = task.wcet_on(pe.pe_type.name)
    if pe.pe_type.kind is PEKind.PROCESSOR:
        return wcet + pe.pe_type.context_switch_time
    return wcet


def finish_time_floor(graph, arch, clustering) -> Dict[str, float]:
    """Copy-0 finish-time floors, the graph queried per task."""
    est = graph.est
    floor: Dict[str, float] = {}
    for name in graph.topological_order():
        cluster_name = clustering.task_to_cluster.get((graph.name, name))
        pe = None
        if cluster_name is not None and arch.is_allocated(cluster_name):
            pe = arch.pe(arch.placement_of(cluster_name)[0])
        base = est
        for pred in graph.predecessors(name):
            if floor[pred] > base:
                base = floor[pred]
        floor[name] = base + _best_case_exec_time(graph.task(name), pe)
    return floor


def deadline_floor_stats(graph, arch, clustering) -> Tuple[int, float]:
    """(missed deadline count, total lateness) of the copy-0 floor."""
    floor = finish_time_floor(graph, arch, clustering)
    est = graph.est
    misses = 0
    lateness = 0.0
    for task_name in graph.deadline_tasks():
        late = floor[task_name] - (est + graph.effective_deadline(task_name))
        if late > TIME_EPS:
            misses += 1
            lateness += late
    return misses, lateness
