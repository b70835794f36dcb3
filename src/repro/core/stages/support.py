"""Shared helpers used by several synthesis stages.

These were private closures/helpers of the old monolithic driver;
they are stage-neutral (priority estimation and graph coupling) and
are imported by the allocation, repair and merge stages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.arch.architecture import Architecture
from repro.cluster.clustering import ClusteringResult
from repro.cluster.priority import PriorityContext, compute_task_priorities
from repro.graph.spec import SystemSpec


def allocation_aware_context(
    pessimistic: PriorityContext,
    arch: Architecture,
    clustering: ClusteringResult,
) -> PriorityContext:
    """Priority estimators reflecting the current partial allocation.

    Allocated tasks use their placement's actual execution time;
    intra-cluster and same-PE edges cost zero; other edges fall back
    to ``pessimistic``, the run's pre-allocation estimators (Section 5:
    priority levels are recomputed after each allocation and
    clustering step).  The context shares ``pessimistic``'s graph
    tables.

    ``arch``'s placements must not change while the context is in
    use: each cluster's PE type is looked up once and then read back
    (links go through ``Architecture.link_between``).
    """
    pessimistic_exec = pessimistic.exec_time
    pessimistic_comm = pessimistic.comm_time
    task_to_cluster = clustering.task_to_cluster
    cluster_alloc = arch.cluster_alloc
    pes = arch.pes
    #: cluster name -> PE type name of its host (None: unallocated).
    hosts: Dict[str, Optional[str]] = {}

    def exec_time(graph, task):
        """Placement-aware execution time for one task."""
        cluster_name = task_to_cluster.get((graph.name, task.name))
        if cluster_name is not None:
            try:
                pe_type_name = hosts[cluster_name]
            except KeyError:
                placement = cluster_alloc.get(cluster_name)
                pe_type_name = hosts[cluster_name] = (
                    None if placement is None
                    else pes[placement[0]].pe_type.name
                )
            if pe_type_name is not None:
                return task.wcet_on(pe_type_name)
        return pessimistic_exec(graph, task)

    def comm_time(graph, edge):
        """Placement-aware communication time for one edge."""
        src_cluster = task_to_cluster.get((graph.name, edge.src))
        dst_cluster = task_to_cluster.get((graph.name, edge.dst))
        if src_cluster is not None and src_cluster == dst_cluster:
            return 0.0
        if src_cluster is not None and dst_cluster is not None:
            src = cluster_alloc.get(src_cluster)
            dst = cluster_alloc.get(dst_cluster)
            if src is not None and dst is not None:
                src_pe = src[0]
                dst_pe = dst[0]
                if src_pe == dst_pe or edge.bytes_ == 0:
                    return 0.0
                link = arch.link_between(src_pe, dst_pe)
                if link is not None:
                    return link.comm_time(edge.bytes_)
        return pessimistic_comm(graph, edge)

    return PriorityContext(
        exec_time=exec_time, comm_time=comm_time, tables=pessimistic.tables
    )


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
