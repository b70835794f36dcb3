"""Architecture fingerprints for the incremental evaluation engine.

The list scheduler's verdict on one task graph depends only on the
resources the graph's clusters touch: the serial PEs hosting them, the
links whose port sets cover at least two of those PEs, the graph's
copy phasing and its priority levels.  Graphs that share none of those
serial resources cannot perturb each other's schedule -- the heap pops
of one graph's component form the same subsequence whether or not the
other graphs are scheduled alongside (ties cannot occur because task
keys are distinct and totally ordered).

This module computes (1) the partition of a specification's graphs
into *components* coupled through shared serial resources and (2) a
value-based fingerprint per component.  Two evaluations whose
component fingerprints are equal produce byte-identical per-component
schedules, so the engine can replay a cached fragment instead of
rescheduling.

ASICs never serialize tasks, so sharing one does not couple graphs;
it still shows up in the fingerprint (as the placement target) because
it determines execution times.

The fingerprint's PE and link signatures (:func:`footprint_view`) are
also the schedule build's view of the architecture: the engine hands
the fingerprint to the build it schedules on a miss, and
:func:`repro.sched.scheduler.build_schedule` reads every programmable
device's modes and boot times, and compares links with its trail's,
through them.  A build requested without a fingerprint derives the
same view here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.resources.pe import PEKind


def graph_pe_footprint(
    arch: Architecture,
    clusters_of_graph,
    graph_name: str,
) -> Set[str]:
    """PE instance ids hosting any allocated cluster of ``graph_name``."""
    pes: Set[str] = set()
    for cluster in clusters_of_graph(graph_name):
        placement = arch.cluster_alloc.get(cluster.name)
        if placement is not None:
            pes.add(placement[0])
    return pes


def _footprint_links(arch: Architecture, pes: Set[str]) -> List[str]:
    """Links whose attached set covers >= 2 of ``pes`` (the only links
    the scheduler can occupy for this graph's edges)."""
    if len(pes) < 2:
        return []
    out = []
    for link in arch.links.values():
        count = 0
        for pe_id in link.attached:
            if pe_id in pes:
                count += 1
                if count >= 2:
                    out.append(link.id)
                    break
    return out


def partition_components(
    names: List[str],
    arch: Architecture,
    clusters_of_graph,
) -> List[List[str]]:
    """Partition ``names`` into groups coupled via shared serial
    resources (processors/PPEs and footprint links).

    Returned groups preserve the order of ``names`` (first appearance
    decides group order, members stay in ``names`` order), which the
    merge step relies on for canonical report ordering.
    """
    parent: Dict[str, str] = {name: name for name in names}

    def find(x: str) -> str:
        """Union-find root of ``x`` with path halving."""
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        """Merge the components of ``a`` and ``b``."""
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    footprints: Dict[str, Set[str]] = {}
    owner: Dict[str, str] = {}
    for name in names:
        pes = graph_pe_footprint(arch, clusters_of_graph, name)
        footprints[name] = pes
        for pe_id in pes:
            if arch.pes[pe_id].pe_type.kind is PEKind.ASIC:
                continue  # contention-free; sharing does not couple
            key = "P:" + pe_id
            if key in owner:
                union(owner[key], name)
            else:
                owner[key] = name
        for link_id in _footprint_links(arch, pes):
            key = "L:" + link_id
            if key in owner:
                union(owner[key], name)
            else:
                owner[key] = name

    groups: Dict[str, List[str]] = {}
    order: List[str] = []
    for name in names:
        root = find(name)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(name)
    return [groups[root] for root in order]


def _pe_signature(
    pe: PEInstance, boot_time_fn: Callable[[PEInstance, int], float]
) -> tuple:
    """Everything about one PE instance the scheduler can observe."""
    modes = tuple(
        (mode.index, tuple(sorted(mode.clusters))) for mode in pe.modes
    )
    boots: tuple = ()
    if pe.is_programmable:
        boots = tuple(boot_time_fn(pe, mode.index) for mode in pe.modes)
    return (pe.id, pe.pe_type.name, modes, boots)


def footprint_view(
    arch: Architecture,
    pes: Set[str],
    boot_time_fn: Callable[[PEInstance, int], float],
) -> Tuple[tuple, tuple]:
    """``(PE signatures, link signatures)`` of the PE ids ``pes``.

    A PE signature is :func:`_pe_signature`'s ``(id, type name, ((mode
    index, sorted clusters), ...), boot time per mode)``, in id order; a
    link signature is ``(id, type name, sorted ports)`` for every link
    covering two of ``pes`` (:func:`_footprint_links`), in id order.
    The ids are the instances' own string objects.
    """
    pe_sigs = tuple(
        _pe_signature(arch.pes[pe_id], boot_time_fn) for pe_id in sorted(pes)
    )
    link_sigs = tuple(
        (
            link_id,
            arch.links[link_id].link_type.name,
            tuple(sorted(arch.links[link_id].attached)),
        )
        for link_id in sorted(_footprint_links(arch, pes))
    )
    return pe_sigs, link_sigs


def component_fingerprint(
    component: List[str],
    spec: SystemSpec,
    assoc: AssociationArray,
    clusters_of_graph,
    arch: Architecture,
    priorities: Dict[str, Dict[str, float]],
    boot_time_fn: Callable[[PEInstance, int], float],
    preemption: bool,
) -> tuple:
    """Value tuple identifying a component's scheduling inputs.

    Captures, per graph: copy phasing (count plus explicit arrivals),
    priority levels and cluster placements; per footprint PE: type,
    mode contents and boot times; per footprint link: type and port
    set (:func:`footprint_view`).  Equal fingerprints imply
    byte-identical fragment schedules.
    """
    graph_sigs = []
    pes: Set[str] = set()
    for name in component:
        graph = spec.graph(name)
        copies = tuple(
            (c.copy, c.arrival) for c in assoc.explicit_copies(name)
        )
        levels = priorities[name]
        prio_sig = tuple(levels[t] for t in graph.topological_order())
        placements = []
        for cluster in clusters_of_graph(name):
            placement = arch.cluster_alloc.get(cluster.name)
            placements.append((cluster.name, placement))
            if placement is not None:
                pes.add(placement[0])
        graph_sigs.append(
            (name, assoc.n_copies(name), copies, prio_sig, tuple(placements))
        )
    pe_sigs, link_sigs = footprint_view(arch, pes, boot_time_fn)
    return (tuple(graph_sigs), pe_sigs, link_sigs, preemption)
