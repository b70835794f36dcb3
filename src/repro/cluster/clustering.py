"""Critical-path task clustering (COSYN method, Section 5).

A *cluster* is a group of tasks always allocated to the same PE.
Clustering zeroes intra-cluster communication, shortening the longest
path, and shrinks the allocation search space.  The procedure:

1. Assign deadline-based priority levels to tasks.
2. Pick the highest-priority unclustered task; grow a cluster along
   the current longest path by repeatedly absorbing the eligible
   successor with the highest priority.
3. Recompute priority levels (intra-cluster edges now cost zero) and
   repeat until every task is clustered.

Eligibility respects the paper's constraints: tasks in a cluster must
share at least one allowed PE type, must not violate exclusion
vectors, and the cluster must stay small enough to fit on at least one
library PE (gate area within the ERUF cap for hardware, memory within
the largest DRAM bank for software).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import SpecificationError
from repro.cluster.priority import (
    NO_DEADLINE_PRIORITY,
    PriorityContext,
    compute_task_priorities,
)
from repro.delay.model import DelayPolicy
from repro.graph.spec import SystemSpec
from repro.graph.task import MemoryRequirement, Task
from repro.graph.taskgraph import TaskGraph
from repro.resources.library import ResourceLibrary
from repro.units import GATES_PER_PFU


@dataclass
class Cluster:
    """A group of tasks always allocated to the same PE.

    Characterized, per Section 2.2, by the preference and exclusion
    vectors of its constituent tasks; we additionally aggregate the
    resource demands capacity checks need.
    """

    name: str
    graph: str
    task_names: List[str] = field(default_factory=list)
    priority: float = NO_DEADLINE_PRIORITY

    #: Intersection of member tasks' allowed PE types.
    allowed_pe_types: Set[str] = field(default_factory=set)
    #: Union of member exclusion vectors (task names).
    exclusions: Set[str] = field(default_factory=set)
    area_gates: int = 0
    pins: int = 0
    memory: MemoryRequirement = field(default_factory=MemoryRequirement)

    def __contains__(self, task_name: str) -> bool:
        return task_name in self.task_names

    @property
    def size(self) -> int:
        """Number of member tasks."""
        return len(self.task_names)

    def preference_weight(self, pe_type: str, spec_graph: TaskGraph) -> float:
        """Aggregate preference of the cluster for a PE type: the
        product of member preferences (any 0 forbids)."""
        weight = 1.0
        for task_name in self.task_names:
            weight *= spec_graph.task(task_name).preference.get(pe_type, 1.0)
        return weight


@dataclass
class ClusteringResult:
    """Output of :func:`cluster_spec`."""

    clusters: Dict[str, Cluster]
    task_to_cluster: Dict[Tuple[str, str], str]

    def cluster_of(self, graph_name: str, task_name: str) -> Cluster:
        """Cluster holding a task (keyed by graph + task name)."""
        try:
            return self.clusters[self.task_to_cluster[(graph_name, task_name)]]
        except KeyError:
            raise SpecificationError(
                "task %r of graph %r is not clustered" % (task_name, graph_name)
            ) from None

    def ordered_by_priority(self) -> List[Cluster]:
        """Clusters in decreasing priority order (allocation order).

        Ties break on name for determinism.
        """
        return sorted(
            self.clusters.values(), key=lambda c: (-c.priority, c.name)
        )

    def ordered_largest_first(self) -> List[Cluster]:
        """Biggest clusters first (size, then priority, then name).

        The ``largest-first`` ablation order: placing bulky clusters
        while the architecture is still cheap to reshape is a classic
        bin-packing ordering.
        """
        return sorted(
            self.clusters.values(),
            key=lambda c: (-c.size, -c.priority, c.name),
        )

    def clusters_of_graph(self, graph_name: str) -> List[Cluster]:
        """Clusters belonging to one task graph, sorted by name."""
        return sorted(
            (c for c in self.clusters.values() if c.graph == graph_name),
            key=lambda c: c.name,
        )

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


#: Cluster allocation orders by ``CrusadeConfig.policy`` value:
#: ``default`` is the paper's decreasing-priority order (Section 5).
CLUSTER_ORDERS: Dict[str, Callable[[ClusteringResult], List[Cluster]]] = {
    "default": ClusteringResult.ordered_by_priority,
    "largest-first": ClusteringResult.ordered_largest_first,
}


def _allowed_types(task: Task, library: ResourceLibrary) -> Set[str]:
    return {
        pe_name
        for pe_name in task.exec_times
        if task.can_run_on(pe_name) and library.has_pe_type(pe_name)
    }


def _capacity_caps(
    library: ResourceLibrary, delay_policy: DelayPolicy
) -> Tuple[int, int]:
    """(max hardware gates per cluster, max software memory bytes).

    A cluster must fit on at least one library part: hardware clusters
    within the largest device's ERUF-capped gates, software clusters
    within the largest processor DRAM bank.
    """
    hw_gates = 0
    for pe_type in library.asics():
        hw_gates = max(hw_gates, pe_type.gates)
    for pe_type in library.ppes():
        capped = int(pe_type.pfus * delay_policy.eruf) * GATES_PER_PFU
        hw_gates = max(hw_gates, capped)
    sw_memory = 0
    for processor in library.processors():
        sw_memory = max(sw_memory, processor.max_memory_bytes)
    return hw_gates, sw_memory


def _can_absorb(
    cluster: Cluster,
    task: Task,
    library: ResourceLibrary,
    hw_gate_cap: int,
    sw_memory_cap: int,
    max_cluster_size: int,
) -> bool:
    """Check whether ``task`` may join ``cluster``."""
    if cluster.size >= max_cluster_size:
        return False
    if task.name in cluster.exclusions:
        return False
    if cluster.task_names and any(
        member in task.exclusions for member in cluster.task_names
    ):
        return False
    shared = cluster.allowed_pe_types & _allowed_types(task, library)
    if not shared:
        return False
    # The grown cluster must still fit somewhere.
    hardware_types = {
        t for t in shared if library.pe_type(t).is_hardware
    }
    software_types = shared - hardware_types
    fits_hw = bool(hardware_types) and (
        cluster.area_gates + task.area_gates <= hw_gate_cap
    )
    fits_sw = bool(software_types) and (
        cluster.memory.total + task.memory.total <= sw_memory_cap
    )
    return fits_hw or fits_sw


def _absorb(cluster: Cluster, task: Task, library: ResourceLibrary) -> None:
    cluster.task_names.append(task.name)
    if len(cluster.task_names) == 1:
        cluster.allowed_pe_types = _allowed_types(task, library)
    else:
        cluster.allowed_pe_types &= _allowed_types(task, library)
    cluster.exclusions |= set(task.exclusions)
    cluster.area_gates += task.area_gates
    cluster.pins += task.pins
    cluster.memory = cluster.memory + task.memory


def cluster_graph(
    graph: TaskGraph,
    library: ResourceLibrary,
    context: PriorityContext,
    delay_policy: Optional[DelayPolicy] = None,
    max_cluster_size: int = 8,
    cluster_prefix: Optional[str] = None,
    growth_scores: Optional[Dict[str, float]] = None,
) -> List[Cluster]:
    """Cluster one task graph along successive critical paths.

    Returns clusters in creation order; each carries the priority of
    its most urgent member at creation time.  ``growth_scores``
    overrides the metric used to pick which eligible successor joins
    the cluster -- CRUSADE-FT passes fault-tolerance levels here while
    seeds are still picked by priority level (Section 6).
    """
    if delay_policy is None:
        delay_policy = DelayPolicy()
    if cluster_prefix is None:
        cluster_prefix = graph.name
    hw_cap, sw_cap = _capacity_caps(library, delay_policy)
    clustered: Dict[str, str] = {}
    clusters: List[Cluster] = []
    # Intra-cluster edges cost zero when recomputing priorities.
    base_comm = context.comm_time

    def comm_time(g: TaskGraph, edge) -> float:
        src_cluster = clustered.get(edge.src)
        if src_cluster is not None and src_cluster == clustered.get(edge.dst):
            return 0.0
        return base_comm(g, edge)

    working_context = PriorityContext(
        exec_time=context.exec_time, comm_time=comm_time,
        tables=context.tables,
    )

    while len(clustered) < len(graph):
        priorities = compute_task_priorities(graph, working_context)
        unclustered = [t for t in graph.topological_order() if t not in clustered]
        # Highest priority first; lexicographic tiebreak.
        seed_name = max(unclustered, key=lambda t: (priorities[t], t))
        cluster = Cluster(
            name="%s/c%03d" % (cluster_prefix, len(clusters)),
            graph=graph.name,
            priority=priorities[seed_name],
        )
        _absorb(cluster, graph.task(seed_name), library)
        clustered[seed_name] = cluster.name
        current = seed_name
        while True:
            candidates = [
                s
                for s in graph.successors(current)
                if s not in clustered
                and _can_absorb(
                    cluster, graph.task(s), library, hw_cap, sw_cap, max_cluster_size
                )
            ]
            if not candidates:
                break
            scores = growth_scores if growth_scores is not None else priorities
            nxt = max(candidates, key=lambda t: (scores.get(t, priorities[t]), t))
            _absorb(cluster, graph.task(nxt), library)
            clustered[nxt] = cluster.name
            current = nxt
        clusters.append(cluster)
    return clusters


def cluster_spec(
    spec: SystemSpec,
    library: ResourceLibrary,
    context: Optional[PriorityContext] = None,
    delay_policy: Optional[DelayPolicy] = None,
    max_cluster_size: int = 8,
    growth_scores: Optional[Dict[Tuple[str, str], float]] = None,
) -> ClusteringResult:
    """Cluster every task graph of a system specification.

    ``growth_scores`` maps (graph name, task name) to the metric used
    for cluster growth (CRUSADE-FT's fault-tolerance levels).
    """
    if context is None:
        context = PriorityContext.pessimistic(library)
    clusters: Dict[str, Cluster] = {}
    task_to_cluster: Dict[Tuple[str, str], str] = {}
    for graph_name in spec.graph_names():
        graph = spec.graph(graph_name)
        per_graph_scores = None
        if growth_scores is not None:
            per_graph_scores = {
                task: score
                for (g, task), score in growth_scores.items()
                if g == graph_name
            }
        for cluster in cluster_graph(
            graph,
            library,
            context,
            delay_policy=delay_policy,
            max_cluster_size=max_cluster_size,
            growth_scores=per_graph_scores,
        ):
            clusters[cluster.name] = cluster
            for task_name in cluster.task_names:
                task_to_cluster[(graph_name, task_name)] = cluster.name
    return ClusteringResult(clusters=clusters, task_to_cluster=task_to_cluster)


def trivial_clustering(
    spec: SystemSpec, library: ResourceLibrary
) -> ClusteringResult:
    """One cluster per task: clustering disabled.

    Used by the clustering ablation benchmark to quantify COSYN's
    claim that clustering trades under 1 % cost for a large CPU-time
    saving.
    """
    clusters: Dict[str, Cluster] = {}
    task_to_cluster: Dict[Tuple[str, str], str] = {}
    context = PriorityContext.pessimistic(library)
    for graph_name in spec.graph_names():
        graph = spec.graph(graph_name)
        priorities = compute_task_priorities(graph, context)
        for index, task_name in enumerate(graph.topological_order()):
            task = graph.task(task_name)
            cluster = Cluster(
                name="%s/s%04d" % (graph_name, index),
                graph=graph_name,
                priority=priorities[task_name],
            )
            _absorb(cluster, task, library)
            clusters[cluster.name] = cluster
            task_to_cluster[(graph_name, task_name)] = cluster.name
    return ClusteringResult(clusters=clusters, task_to_cluster=task_to_cluster)
