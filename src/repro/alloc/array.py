"""Allocation-array construction (Sections 4.2 and 5).

The allocation array for a cluster enumerates every candidate
placement at the current point of co-synthesis:

* onto an existing PE instance (processors/ASICs, or an existing
  configuration mode of a programmable PE -- the Figure 4(e) case
  where overlapping cluster C3 joins C1's mode);
* into a *new* mode of an existing programmable PE, allowed only when
  the cluster's task graph is compatible (non-overlapping) with every
  graph already configured into the device's other modes -- the
  Figure 4(d) case;
* onto a fresh instance of every library PE type the cluster can run
  on.

Options are ordered by increasing incremental dollar cost, with the
cluster's preference weight and determinism tie-breaks, matching the
paper's cost-driven inner loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import Cluster, ClusteringResult
from repro.delay.model import DelayPolicy
from repro.graph.spec import SystemSpec
from repro.obs.trace import NULL_TRACER, Tracer
from repro.reconfig.compatibility import CompatibilityAnalysis
from repro.resources.pe import PpeType, ProcessorType
from repro.alloc.capacity import (
    exclusion_conflict,
    fits_in_ppe_mode,
    fits_new_pe_type,
    fits_on_asic,
    fits_on_processor,
)


class AllocationKind(enum.Enum):
    """How an allocation option places the cluster."""

    EXISTING_PE = "existing-pe"
    EXISTING_MODE = "existing-mode"
    NEW_MODE = "new-mode"
    NEW_PE = "new-pe"


@dataclass(frozen=True)
class AllocationOption:
    """One candidate placement of a cluster.

    ``pe_id`` names an existing instance for the existing/new-mode
    kinds; ``pe_type_name`` names a library type for NEW_PE.
    ``mode_index`` is the target mode for EXISTING_MODE placements.
    ``pollution`` counts resident graphs the cluster could instead
    time-share with: placing a cluster beside graphs it is compatible
    with wastes simultaneous silicon on functions that never run
    together and poisons later PPE merging, so such joins sort last
    among equal-cost options.
    """

    kind: AllocationKind
    est_cost: float
    preference: float
    pe_id: Optional[str] = None
    pe_type_name: Optional[str] = None
    mode_index: Optional[int] = None
    pollution: int = 0
    #: NEW_MODE only: resident clusters whose circuits are replicated
    #: into the new mode because their graphs overlap the cluster's.
    replicate: Tuple[str, ...] = ()

    @property
    def sort_key(self) -> tuple:
        """The array's order: cheapest estimated cost first, then less
        pollution, higher preference, and joining an existing PE or
        mode before a new mode before a new PE."""
        order = {
            AllocationKind.EXISTING_PE: 0,
            AllocationKind.EXISTING_MODE: 0,
            AllocationKind.NEW_MODE: 1,
            AllocationKind.NEW_PE: 2,
        }[self.kind]
        return (
            self.est_cost,
            self.pollution,
            -self.preference,
            order,
            self.pe_id or "",
            self.pe_type_name or "",
            self.mode_index if self.mode_index is not None else -1,
        )

    def describe(self) -> str:
        """Human-readable one-liner for traces and reports."""
        if self.kind is AllocationKind.NEW_PE:
            return "new %s ($%.0f)" % (self.pe_type_name, self.est_cost)
        if self.kind is AllocationKind.NEW_MODE:
            return "new mode of %s" % (self.pe_id,)
        if self.kind is AllocationKind.EXISTING_MODE:
            return "%s mode %d" % (self.pe_id, self.mode_index)
        return "existing %s" % (self.pe_id,)


def _memory_upgrade_cost(cluster: Cluster, pe: PEInstance) -> float:
    """Incremental DRAM-bank cost of adding the cluster's memory."""
    processor = pe.pe_type
    if not isinstance(processor, ProcessorType):
        return 0.0
    before = pe.memory_bank()
    demand = pe.memory_demand.total + cluster.memory.total
    after = processor.smallest_bank_for(demand) if demand > 0 else None
    before_cost = before.cost if before is not None else 0.0
    after_cost = after.cost if after is not None else 0.0
    return max(0.0, after_cost - before_cost)


def _graphs_in_mode(pe: PEInstance, mode_index: int, clustering) -> set:
    """Graphs whose circuits are configured into a mode (replicas
    included)."""
    return {
        clustering.clusters[name].graph
        for name in pe.clusters()
        if mode_index in pe.modes_of_cluster(name)
    }


def _new_mode_plan(
    cluster: Cluster,
    pe: PEInstance,
    clustering: ClusteringResult,
    compat: Optional[CompatibilityAnalysis],
    policy: DelayPolicy,
) -> Optional[Tuple[str, ...]]:
    """Whether a new mode may host the cluster, and which residents
    must be replicated into it.

    A resident whose graph is *compatible* with the cluster's never
    runs at the same time -- it simply lives in its own modes.  A
    resident whose graph *overlaps* must stay loaded while the cluster
    runs, so its circuit is replicated into the new mode (Figure 2(e):
    T1 is present in both configurations).  Returns the sorted replica
    list, or None when the new mode is not allowed -- because
    reconfiguration is off, the replicas don't fit beside the cluster
    under the ERUF/EPUF caps, or a resident already spans several
    modes (nested replication is not explored).
    """
    if compat is None:
        return None
    if pe.pe_type.name not in cluster.allowed_pe_types:
        return None
    replicate = []
    gates = cluster.area_gates
    pins = cluster.pins
    for resident_name in pe.clusters():
        resident = clustering.clusters[resident_name]
        if resident.graph != cluster.graph and compat.compatible(
            cluster.graph, resident.graph
        ):
            continue
        # Overlapping (or same-graph) resident: replicate it.
        if pe.replica_modes.get(resident_name):
            return None
        replicate.append(resident_name)
        gates += resident.area_gates
        pins += resident.pins
    if not policy.admits(pe.pe_type, gates, pins):
        return None
    return tuple(sorted(replicate))


def _mode_join_allowed(
    cluster: Cluster,
    pe: PEInstance,
    mode_index: int,
    clustering: ClusteringResult,
    compat: Optional[CompatibilityAnalysis],
) -> bool:
    """Whether the cluster may join an *existing* mode.

    Physically, the device sits in mode ``mode_index`` whenever the
    cluster executes, so every graph configured into the device's
    *other* modes must be compatible (non-overlapping) with the
    cluster's graph -- this is how Figure 4's C3 joins C1's mode while
    C2 lives in its own.  Conversely, when the cluster is compatible
    with everything in the host mode too, joining would waste
    simultaneous silicon on functions that never run together; the
    new-mode option covers that case, so the join is not offered.
    """
    for other_mode in pe.modes:
        if other_mode.index == mode_index:
            continue
        for graph_name in _graphs_in_mode(pe, other_mode.index, clustering):
            if graph_name == cluster.graph:
                return False
            if compat is None or not compat.compatible(cluster.graph, graph_name):
                return False
    if compat is not None:
        host_graphs = _graphs_in_mode(pe, mode_index, clustering)
        if host_graphs and all(
            g != cluster.graph and compat.compatible(cluster.graph, g)
            for g in host_graphs
        ):
            return False
    return True


def build_allocation_array(
    cluster: Cluster,
    arch: Architecture,
    clustering: ClusteringResult,
    spec: SystemSpec,
    policy: DelayPolicy,
    compat: Optional[CompatibilityAnalysis] = None,
    max_existing_options: int = 12,
    allow_new_modes: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> List[AllocationOption]:
    """Enumerate candidate placements for ``cluster``, cheapest first.

    ``compat=None`` (or ``allow_new_modes=False``) disables dynamic
    reconfiguration: no new-mode options are generated, which is
    exactly the paper's baseline ("each programmable device had only
    one mode").  ``max_existing_options`` bounds how many existing-
    instance candidates are kept (cheapest, then most free capacity)
    to keep the inner loop tractable on large systems.
    """
    graph = spec.graph(cluster.graph)
    existing: List[AllocationOption] = []
    new_modes: List[AllocationOption] = []
    tracer.incr("alloc.array.builds")

    for pe in sorted(arch.pes.values(), key=lambda p: p.id):
        pe_type = pe.pe_type
        preference = cluster.preference_weight(pe_type.name, graph)
        if preference <= 0.0:
            continue
        if isinstance(pe_type, ProcessorType):
            if not fits_on_processor(cluster, pe, clustering):
                tracer.incr("alloc.rejects.processor_capacity")
            else:
                existing.append(
                    AllocationOption(
                        kind=AllocationKind.EXISTING_PE,
                        est_cost=_memory_upgrade_cost(cluster, pe),
                        preference=preference,
                        pe_id=pe.id,
                        mode_index=0,
                    )
                )
        elif isinstance(pe_type, PpeType):
            for mode in pe.modes:
                if not fits_in_ppe_mode(
                    cluster, pe, mode.index, clustering, policy
                ):
                    tracer.incr("alloc.rejects.ppe_mode_capacity")
                elif not _mode_join_allowed(
                    cluster, pe, mode.index, clustering, compat
                ):
                    tracer.incr("alloc.rejects.mode_join")
                else:
                    # Pollution: graphs already configured into this
                    # mode that the cluster could instead time-share
                    # with -- co-locating them wastes simultaneous
                    # silicon.
                    pollution = 0
                    if compat is not None:
                        pollution = sum(
                            1
                            for g in _graphs_in_mode(pe, mode.index, clustering)
                            if compat.compatible(cluster.graph, g)
                        )
                    existing.append(
                        AllocationOption(
                            kind=AllocationKind.EXISTING_MODE,
                            est_cost=0.0,
                            preference=preference,
                            pe_id=pe.id,
                            mode_index=mode.index,
                            pollution=pollution,
                        )
                    )
            if allow_new_modes:
                plan = _new_mode_plan(cluster, pe, clustering, compat, policy)
                if plan is None:
                    tracer.incr("alloc.rejects.new_mode")
                elif exclusion_conflict(cluster, pe, clustering):
                    tracer.incr("alloc.rejects.exclusion")
                else:
                    new_modes.append(
                        AllocationOption(
                            kind=AllocationKind.NEW_MODE,
                            est_cost=0.0,
                            preference=preference,
                            pe_id=pe.id,
                            mode_index=None,
                            # Each replicated circuit duplicates
                            # silicon and boot-image storage; prefer
                            # replica-free placements at equal cost.
                            pollution=len(plan),
                            replicate=plan,
                        )
                    )
        else:  # ASIC
            if not fits_on_asic(cluster, pe, clustering):
                tracer.incr("alloc.rejects.asic_capacity")
            else:
                existing.append(
                    AllocationOption(
                        kind=AllocationKind.EXISTING_PE,
                        est_cost=0.0,
                        preference=preference,
                        pe_id=pe.id,
                        mode_index=0,
                    )
                )

    existing.sort(key=lambda o: o.sort_key)
    existing = existing[:max_existing_options]
    new_modes.sort(key=lambda o: o.sort_key)
    new_modes = new_modes[:max_existing_options]

    fresh: List[AllocationOption] = []
    for pe_type in arch.library.all_pe_types_by_cost():
        preference = cluster.preference_weight(pe_type.name, graph)
        if preference <= 0.0:
            continue
        if not fits_new_pe_type(cluster, pe_type, policy):
            tracer.incr("alloc.rejects.new_pe_capacity")
            continue
        cost = pe_type.cost
        if isinstance(pe_type, ProcessorType) and cluster.memory.total > 0:
            bank = pe_type.smallest_bank_for(cluster.memory.total)
            if bank is not None:
                cost += bank.cost
        fresh.append(
            AllocationOption(
                kind=AllocationKind.NEW_PE,
                est_cost=cost,
                preference=preference,
                pe_type_name=pe_type.name,
            )
        )

    options = existing + new_modes + fresh
    options.sort(key=lambda o: o.sort_key)
    tracer.incr("alloc.array.options", len(options))
    return options
