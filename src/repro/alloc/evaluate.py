"""Applying and evaluating allocation options (the inner loop).

``apply_option`` realizes one allocation-array entry on an
architecture -- either a clone, or the working architecture itself via
``apply_option_cow``'s revertible copy-on-write overlay; see
:mod:`repro.perf.cow`.  ``evaluate_architecture`` runs the scheduler
and finish-time estimation and wraps the verdict for the
allocation-evaluation step, which compares candidates on total dollar
cost (Section 5).  Scheduling goes through an
:class:`~repro.perf.engine.IncrementalEngine`, which reuses cached
per-component fragments across evaluations.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import AllocationError
from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import Cluster, ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.obs.trace import NULL_TRACER, Tracer
from repro.resources.link import LinkType
from repro.perf.engine import IncrementalEngine
from repro.sched.finish_time import DeadlineReport
from repro.sched.scheduler import Schedule
from repro.alloc.array import AllocationKind, AllocationOption

#: (library id, strategy) -> (library n_links, chosen LinkType).  The
#: library is immutable during a synthesis run; keying by identity and
#: double-checking the link count keeps a mutated-library test honest.
_link_type_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_link_type_lock = threading.Lock()


def choose_link_type(arch: Architecture, strategy: str = "cheapest") -> LinkType:
    """The link type new connections use.

    ``"cheapest"`` minimizes instance-plus-two-ports dollar cost;
    ``"fastest"`` minimizes the transfer time of a representative
    256-byte message.  The CRUSADE driver retries a failed cluster
    with the fastest strategy before giving up.

    Memoized per (library, strategy): the choice depends only on the
    link library, and the innermost loop used to re-sort it for every
    applied option.
    """
    library = arch.library
    links = library.links_by_cost()
    with _link_type_lock:
        per_library = _link_type_cache.setdefault(library, {})
        cached = per_library.get(strategy)
        if cached is not None and cached[0] == len(links):
            return cached[1]
    if not links:
        raise AllocationError("resource library has no link types")
    if strategy == "fastest":
        chosen = min(links, key=lambda l: (l.comm_time(256), l.name))
    elif strategy == "cheapest":
        chosen = min(links, key=lambda l: (l.instance_cost(2), l.name))
    else:
        raise AllocationError("unknown link strategy %r" % (strategy,))
    with _link_type_lock:
        per_library[strategy] = (len(links), chosen)
    return chosen


def _connect_cluster_edges(
    arch: Architecture,
    cluster: Cluster,
    pe: PEInstance,
    clustering: ClusteringResult,
    spec: SystemSpec,
    link_type: LinkType,
    journal: Optional[list] = None,
) -> None:
    """Ensure links exist for every allocated inter-PE edge touching
    the cluster."""
    graph = spec.graph(cluster.graph)
    member = set(cluster.task_names)
    neighbours: Set[str] = set()
    for task_name in cluster.task_names:
        for other in graph.predecessors(task_name):
            if other not in member:
                neighbours.add(other)
        for other in graph.successors(task_name):
            if other not in member:
                neighbours.add(other)
    peer_pe_ids: Set[str] = set()
    for other in sorted(neighbours):
        other_cluster = clustering.cluster_of(cluster.graph, other)
        if not arch.is_allocated(other_cluster.name):
            continue
        peer_id, _ = arch.placement_of(other_cluster.name)
        if peer_id != pe.id:
            peer_pe_ids.add(peer_id)
    for peer_id in sorted(peer_pe_ids):
        arch.connect(pe.id, peer_id, link_type, journal=journal)


def apply_option(
    option: AllocationOption,
    arch: Architecture,
    cluster: Cluster,
    clustering: ClusteringResult,
    spec: SystemSpec,
    link_strategy: str = "cheapest",
    journal: Optional[list] = None,
) -> PEInstance:
    """Realize ``option`` on ``arch`` (a clone, or the working
    architecture when a ``journal`` records the mutations for
    copy-on-write reversal).

    Returns the PE instance now hosting the cluster.
    """
    if option.kind is AllocationKind.NEW_PE:
        pe_type = arch.library.pe_type(option.pe_type_name)
        had_counter = pe_type.name in arch._counters
        pe = arch.new_pe(pe_type)
        if journal is not None:
            journal.append(("new_pe", pe.id, pe_type.name, had_counter))
        mode_index = 0
    else:
        pe = arch.pe(option.pe_id)
        if option.kind is AllocationKind.NEW_MODE:
            mode_index = pe.new_mode().index
            if journal is not None:
                journal.append(("new_mode", pe.id))
        else:
            mode_index = option.mode_index if option.mode_index is not None else 0
    arch.allocate_cluster(
        cluster.name,
        pe.id,
        mode_index,
        gates=cluster.area_gates,
        pins=cluster.pins,
        memory=cluster.memory,
    )
    if journal is not None:
        journal.append(
            ("alloc", cluster.name, cluster.area_gates, cluster.pins,
             cluster.memory)
        )
    # Replicate overlapping residents into the new mode (Figure 2(e)).
    for resident_name in option.replicate:
        resident = clustering.clusters[resident_name]
        pe.add_replica(
            resident_name,
            mode_index,
            gates=resident.area_gates,
            pins=resident.pins,
        )
        if journal is not None:
            journal.append(
                ("replica", pe.id, resident_name, mode_index,
                 resident.area_gates, resident.pins)
            )
    link_type = choose_link_type(arch, link_strategy)
    _connect_cluster_edges(
        arch, cluster, pe, clustering, spec, link_type, journal=journal
    )
    return pe


def apply_option_cow(
    option: AllocationOption,
    arch: Architecture,
    cluster: Cluster,
    clustering: ClusteringResult,
    spec: SystemSpec,
    link_strategy: str = "cheapest",
):
    """Apply ``option`` to ``arch`` *in place* as a revertible overlay.

    Returns an :class:`~repro.perf.cow.AppliedOption` handle; call
    ``revert()`` to restore the pre-apply state exactly, or keep the
    architecture as-is to commit.  A failed application is rolled back
    before the exception propagates.
    """
    from repro.perf.cow import AppliedOption, undo_journal

    journal: list = []
    try:
        pe = apply_option(
            option, arch, cluster, clustering, spec, link_strategy,
            journal=journal,
        )
    except Exception:
        undo_journal(arch, journal)
        raise
    return AppliedOption(arch, journal, pe)


@dataclass
class EvalResult:
    """Verdict on one candidate architecture."""

    arch: Architecture
    schedule: Schedule
    report: DeadlineReport
    cost: float

    @property
    def feasible(self) -> bool:
        """Deadlines met and no resource overloaded."""
        return self.report.all_met

    def badness(self) -> tuple:
        """(infeasibility, cost) ordering for fallback selection."""
        misses, lateness = self.report.badness()
        return (misses, lateness, self.cost)


def evaluate_architecture(
    spec: SystemSpec,
    assoc: AssociationArray,
    clustering: ClusteringResult,
    arch: Architecture,
    priorities: Dict[str, Dict[str, float]],
    boot_time_fn: Optional[Callable[[PEInstance, int], float]] = None,
    preemption: bool = True,
    graphs: Optional[List[str]] = None,
    tracer: Tracer = NULL_TRACER,
    engine: Optional[IncrementalEngine] = None,
    bound: Optional[tuple] = None,
) -> EvalResult:
    """Schedule ``arch`` and wrap the finish-time verdict.

    ``graphs`` restricts scheduling and verification to a subset (the
    fast inner-loop path); the driver always re-validates the final
    architecture with the full graph set.  ``engine`` (an
    :class:`~repro.perf.engine.IncrementalEngine`) reuses cached
    per-component schedule fragments across calls; None schedules
    through a fresh one.  ``bound`` (an incumbent badness
    tuple) enables bounded search: scheduling raises
    :class:`~repro.sched.scheduler.ScheduleAbort` the moment the
    candidate provably loses to the incumbent -- callers passing a
    bound must be prepared to discard the candidate on that exception.
    """
    tracer.incr("alloc.evaluations")
    if graphs is not None:
        tracer.incr("alloc.evaluations.scoped")
        scoped_spec, scoped_assoc = _scope(spec, assoc, graphs, tracer)
    else:
        scoped_spec, scoped_assoc = spec, assoc
    if engine is None:
        engine = IncrementalEngine()
    schedule, report = engine.evaluate(
        scoped_spec, scoped_assoc, clustering, arch, priorities,
        boot_time_fn, preemption, tracer, bound=bound,
    )
    return EvalResult(arch=arch, schedule=schedule, report=report, cost=arch.cost)


#: Per-spec bound on memoized subset specifications; pathological
#: coupled-set churn evicts least-recently-used entries instead of
#: growing without bound.
SCOPE_CACHE_MAX_ENTRIES = 64

_scope_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_scope_lock = threading.Lock()


def _scope(
    spec: SystemSpec,
    assoc: AssociationArray,
    graphs: List[str],
    tracer: Tracer = NULL_TRACER,
):
    """A sub-specification (and matching association array) covering
    only ``graphs``; memoized per specification because the inner loop
    asks repeatedly for the same subsets.

    The per-spec table is an LRU bounded by
    :data:`SCOPE_CACHE_MAX_ENTRIES`; traffic shows up as
    ``scope.hits`` / ``scope.misses`` / ``scope.evictions`` counters.
    """
    key = tuple(sorted(graphs))
    with _scope_lock:
        per_spec = _scope_cache.get(spec)
        if per_spec is None:
            per_spec = OrderedDict()
            _scope_cache[spec] = per_spec
        hit = per_spec.get(key)
        if hit is not None:
            per_spec.move_to_end(key)
            tracer.incr("scope.hits")
            return hit
    tracer.incr("scope.misses")
    scoped = SystemSpec(
        name=spec.name + "/subset",
        graphs=[spec.graph(g) for g in sorted(set(graphs))],
        compatibility=None,
        boot_time_requirement=spec.boot_time_requirement,
    )
    scoped_assoc = AssociationArray(
        scoped, max_explicit_copies=assoc.max_explicit_copies
    )
    entry = (scoped, scoped_assoc)
    with _scope_lock:
        per_spec[key] = entry
        while len(per_spec) > SCOPE_CACHE_MAX_ENTRIES:
            per_spec.popitem(last=False)
            tracer.incr("scope.evictions")
    return entry
