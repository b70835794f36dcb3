"""Shared helpers used by several synthesis stages.

These were private closures/helpers of the old monolithic driver;
they are stage-neutral (priority estimation and graph coupling) and
are imported by the allocation, repair and merge stages.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.arch.architecture import Architecture
from repro.cluster.clustering import ClusteringResult
from repro.cluster.priority import PriorityContext, compute_task_priorities
from repro.graph.spec import SystemSpec
from repro.resources.library import ResourceLibrary


def allocation_aware_context(
    library: ResourceLibrary,
    arch: Architecture,
    clustering: ClusteringResult,
) -> PriorityContext:
    """Priority estimators reflecting the current partial allocation.

    Allocated tasks use their placement's actual execution time;
    intra-cluster and same-PE edges cost zero; other edges fall back
    to the pessimistic library maximum (Section 5: priority levels are
    recomputed after each allocation and clustering step).
    """
    pessimistic = PriorityContext.pessimistic(library)

    def exec_time(graph, task):
        """Placement-aware execution time for one task."""
        key = (graph.name, task.name)
        cluster_name = clustering.task_to_cluster.get(key)
        if cluster_name is not None and arch.is_allocated(cluster_name):
            pe_id, _ = arch.placement_of(cluster_name)
            return task.wcet_on(arch.pe(pe_id).pe_type.name)
        return pessimistic.exec_time(graph, task)

    def comm_time(graph, edge):
        """Placement-aware communication time for one edge."""
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


def compute_priorities(
    spec: SystemSpec, context: PriorityContext
) -> Dict[str, Dict[str, float]]:
    """Task priority levels for every graph under ``context``."""
    return {
        name: compute_task_priorities(spec.graph(name), context)
        for name in spec.graph_names()
    }


def coupled_graphs(
    arch: Architecture, clustering: ClusteringResult, graph_name: str
) -> List[str]:
    """Graphs sharing any PE instance with ``graph_name`` (one hop).

    The fast inner loop schedules only these; others cannot be
    perturbed by the candidate placement.
    """
    pes_of_graph: Set[str] = set()
    for cluster in clustering.clusters.values():
        if cluster.graph == graph_name and arch.is_allocated(cluster.name):
            pes_of_graph.add(arch.placement_of(cluster.name)[0])
    coupled = {graph_name}
    for cluster in clustering.clusters.values():
        if arch.is_allocated(cluster.name):
            if arch.placement_of(cluster.name)[0] in pes_of_graph:
                coupled.add(cluster.graph)
    return sorted(coupled)
