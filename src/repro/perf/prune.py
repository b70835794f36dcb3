"""Admissible candidate pruning for the synthesis inner loop.

Most allocation candidates never win: they provably miss a deadline
or provably overload a resource, and the scheduler run that proves it
is the inner loop's dominant cost.  This module computes per-candidate
*lower bounds* (via :mod:`repro.sched.bounds`) and discards candidates
the bounds already condemn -- **pure dominance pruning**: a pruned
candidate is one the full evaluation would necessarily have rejected,
so the chosen candidate, the fallback, and the final architecture are
byte-identical to the exhaustive run (property-tested in
``tests/perf/test_prune.py``).

Four bounds are used:

* **Finish-time floor** -- the copy-0 critical path over the
  best-case execution vector plus the PPE mode-switch reboot bound
  (:func:`repro.sched.bounds.deadline_floor_stats`).  Bit-exactly
  dominated by any real schedule, so ``floor - deadline > TIME_EPS``
  proves a deadline miss with no margin at all.
* **Demand floor** -- per-resource busy time over the hyperperiod
  (:func:`repro.sched.bounds.demand_floor`), checked on the
  candidate's target PE and -- by pigeonhole -- on its whole PE
  class: if the class total exceeds the combined capacity, perfect
  balancing still overloads someone.  Summation order differs from
  the evaluator's, so a relative :data:`DEMAND_MARGIN` guards the cut.
* **Link-contention floor** -- per-link busy time from the cluster
  graph's cross-PE payload edges around the target PE, catching the
  span-driven overloads (full-scale NGXM) the exec-time demand floor
  cannot see.
* **Dollar-cost floor** -- an applied candidate's cost is exact, and
  the interface-synthesis surcharge is non-negative, which lets the
  merge loop skip trials that cannot beat the incumbent and lets the
  fallback search skip pruned candidates that cannot beat the
  incumbent least-infeasible choice.

``CrusadeConfig(prune=False)`` restores exhaustive evaluation, the
reference the identity suites and the inner-loop benchmark compare
against.  Counter traffic: ``prune.cut`` / ``prune.kept`` plus per-reason
``prune.cut.deadline`` / ``prune.cut.overload`` /
``prune.cut.repair`` / ``prune.cut.merge``, and
``prune.fallback_evals`` / ``prune.fallback_skipped`` for the
deferred least-infeasible reconstruction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.cluster.clustering import Cluster, ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.obs.trace import NULL_TRACER, Tracer
from repro.resources.pe import PEKind
from repro.sched.bounds import deadline_floor_stats, demand_floor
from repro.sched.finish_time import _OVERLOAD_TOLERANCE

#: Relative margin applied to demand floors before calling a resource
#: overloaded: the evaluator sums per-task busy times in schedule
#: insertion order, the floor in cluster order, and float addition is
#: not associative.
DEMAND_MARGIN = 1e-6

#: Deflation applied to summed lateness/excess floors (lower-bound
#: components that aggregate many float terms in a different order
#: than the evaluator).
_SUM_DEFLATE = 1.0 - 1e-6


class PruneVerdict:
    """Why a candidate was cut, with its admissible badness floor.

    ``floor`` is a valid lexicographic lower bound on the candidate's
    :meth:`~repro.alloc.evaluate.EvalResult.badness` tuple; the
    fallback reconstruction uses it to order and skip pruned
    candidates against the incumbent.
    """

    __slots__ = ("reason", "floor")

    def __init__(self, reason: str, floor: tuple) -> None:
        """Record why a candidate was cut and its badness floor."""
        self.reason = reason
        self.floor = floor


class CandidatePruner:
    """Admissible pruning for one cluster's allocation candidates.

    Built once per cluster iteration (the placements of every *other*
    cluster are fixed for its lifetime); ``bound`` is called with the
    architecture *after* the candidate option was applied and with the
    same ``graphs`` scope the evaluation would use, and memoizes per
    option identity -- the same option re-tried under another link
    strategy lands on the same placement, and link choices affect
    neither bound (communication floors are zero and demand ignores
    links).
    """

    def __init__(
        self,
        spec: SystemSpec,
        assoc: AssociationArray,
        clustering: ClusteringResult,
        cluster: Cluster,
        boot_time_fn=None,
    ) -> None:
        """Precompute this cluster iteration's bound inputs."""
        self.spec = spec
        self.assoc = assoc
        self.clustering = clustering
        self.cluster = cluster
        self.boot_time_fn = boot_time_fn
        self.graph = spec.graph(cluster.graph)
        self._memo: Dict[tuple, Optional[PruneVerdict]] = {}

    @staticmethod
    def _option_key(option) -> tuple:
        return (
            option.kind,
            option.pe_id,
            option.pe_type_name,
            option.mode_index,
            option.replicate,
        )

    def bound(
        self,
        arch: Architecture,
        option,
        graphs: Optional[List[str]],
        tracer: Tracer = NULL_TRACER,
    ) -> Optional[PruneVerdict]:
        """A :class:`PruneVerdict` when the applied candidate is
        provably infeasible, else None (evaluate it)."""
        key = self._option_key(option)
        if key in self._memo:
            return self._memo[key]
        verdict = self._compute(arch, graphs, tracer)
        self._memo[key] = verdict
        return verdict

    def _compute(
        self, arch: Architecture, graphs: Optional[List[str]], tracer: Tracer
    ) -> Optional[PruneVerdict]:
        if graphs is None:
            scoped_spec, scoped_assoc = self.spec, self.assoc
        else:
            from repro.alloc.evaluate import _scope

            scoped_spec, scoped_assoc = _scope(
                self.spec, self.assoc, graphs, tracer
            )
        pe_id, _ = arch.placement_of(self.cluster.name)
        pe = arch.pe(pe_id)

        overloads = 0
        excess = 0.0
        # Overload floor, restricted to the candidate's target PE and
        # its resource class: the only demands the option increased.
        # (Checking every PE would also be admissible but would
        # condemn *all* candidates whenever an unrelated PE is already
        # overloaded, sending the whole frontier to the fallback
        # reconstruction.)
        if pe.pe_type.kind is not PEKind.ASIC:
            demand_map = demand_floor(
                arch,
                self.clustering,
                scoped_spec,
                scoped_assoc,
                graph_names=scoped_spec.graph_names(),
            )
            demand = demand_map.get(pe_id, 0.0)
            capacity = scoped_assoc.hyperperiod
            threshold = capacity * _OVERLOAD_TOLERANCE * (1.0 + DEMAND_MARGIN)
            if demand > threshold:
                overloads = 1
                excess = (demand / capacity - 1.0) * _SUM_DEFLATE
            else:
                # Class pigeonhole: if the summed demand floor over
                # every instance of the target's PE type exceeds their
                # combined capacity, at least one of them is overloaded
                # in any schedule -- even perfect balancing cannot
                # absorb it -- and the total excess is at least the
                # sum's overshoot.
                type_name = pe.pe_type.name
                total = 0.0
                n_members = 0
                for member in arch.pes.values():
                    if member.pe_type.name == type_name:
                        n_members += 1
                        total += demand_map.get(member.id, 0.0)
                if n_members > 1 and total * _SUM_DEFLATE > threshold * n_members:
                    overloads = 1
                    excess = (total / capacity - n_members) * _SUM_DEFLATE

        misses, lateness = deadline_floor_stats(
            self.graph, arch, self.clustering, self.boot_time_fn
        )

        if not misses and not overloads:
            # Last-resort link-contention floor: span-driven workloads
            # (full-scale NGXM) overload *links*, which the exec-time
            # demand floor above cannot see.
            overloads, excess = self._link_floor(arch, scoped_assoc, pe_id)
            if not overloads:
                return None
        reason = "deadline" if misses else "overload"
        badness_floor = (
            misses + overloads,
            (lateness * _SUM_DEFLATE) + excess,
            arch.cost,
        )
        return PruneVerdict(reason, badness_floor)

    def _graph_edges(self) -> tuple:
        """Static (src, dst, bytes) rows of the cluster's graph with a
        non-zero payload, in deterministic topological/pred order."""
        edges = getattr(self, "_edges", None)
        if edges is None:
            graph = self.graph
            rows = []
            for name in graph.topological_order():
                for pred in graph.predecessors(name):
                    bytes_ = graph.edge(pred, name).bytes_
                    if bytes_:
                        rows.append((pred, name, bytes_))
            edges = self._edges = tuple(rows)
        return edges

    def _link_floor(
        self, arch: Architecture, scoped_assoc, pe_id: str
    ) -> Tuple[int, float]:
        """(overload count, excess floor) from link contention around
        the target PE.

        Every cross-PE edge of the cluster's own graph with payload is
        routed by the scheduler over exactly
        ``arch.find_link_between(pred_pe, succ_pe)`` and occupies it
        for ``link.comm_time(bytes)``, extrapolated per copy -- so
        summing those terms per link (restricted to links touching the
        candidate's target PE, the demands this option changed) is a
        true demand floor; the usual relative margins absorb the
        summation-order float noise.
        """
        clustering = self.clustering
        graph_name = self.graph.name
        copies = scoped_assoc.n_copies(graph_name)
        capacity = scoped_assoc.hyperperiod
        threshold = capacity * _OVERLOAD_TOLERANCE * (1.0 + DEMAND_MARGIN)
        task_to_cluster = clustering.task_to_cluster
        cluster_alloc = arch.cluster_alloc
        routes: Dict[tuple, object] = {}
        demand: Dict[str, float] = {}
        for src, dst, bytes_ in self._graph_edges():
            src_place = cluster_alloc.get(task_to_cluster[(graph_name, src)])
            dst_place = cluster_alloc.get(task_to_cluster[(graph_name, dst)])
            if src_place is None or dst_place is None:
                continue
            src_pe, dst_pe = src_place[0], dst_place[0]
            if src_pe == dst_pe or (src_pe != pe_id and dst_pe != pe_id):
                continue
            pair = (src_pe, dst_pe)
            link = routes.get(pair, routes)
            if link is routes:
                link = routes[pair] = arch.find_link_between(src_pe, dst_pe)
            if link is None:
                continue
            demand[link.id] = demand.get(link.id, 0.0) + (
                link.comm_time(bytes_) * copies
            )
        overloads = 0
        excess = 0.0
        for link_id in sorted(demand):
            load = demand[link_id]
            if load * _SUM_DEFLATE > threshold:
                overloads += 1
                excess += (load / capacity - 1.0) * _SUM_DEFLATE
        return overloads, excess


class RepairBound:
    """Full-scope lexicographic badness floor for repair re-homings.

    Repair keeps a candidate only when it meets every deadline or
    strictly improves the incumbent's badness; a candidate whose floor
    is already >= the incumbent's badness can do neither (its first
    floor component is then necessarily positive, ruling out
    feasibility too), so it is skipped without scheduling.

    Repair moves one cluster at a time, so between two trials the
    deadline DP of almost every graph is computed from identical
    inputs.  The per-graph (misses, lateness) pair is therefore
    memoized under a placement signature capturing exactly what
    :func:`~repro.sched.bounds.finish_time_floor` reads: each
    cluster's hosting PE, its type, and -- for mode-windowed devices
    -- the cluster's permitted mode set with its boot times.  The
    per-graph partial sums are folded in a different float order than
    the single running sum, which the existing :data:`_SUM_DEFLATE`
    margin already covers.
    """

    #: Memo ceiling; repair sweeps revisit a few hundred placement
    #: signatures per graph at most, this is a runaway guard.
    _DP_MEMO_MAX = 8192

    def __init__(
        self,
        spec: SystemSpec,
        assoc: AssociationArray,
        clustering: ClusteringResult,
        boot_time_fn=None,
    ) -> None:
        """Index clusters per graph and reset the DP/demand memos."""
        from repro.reconfig.reboot import default_boot_time

        self.spec = spec
        self.assoc = assoc
        self.clustering = clustering
        self.boot_time_fn = boot_time_fn
        self._boot_fn = boot_time_fn or default_boot_time
        self._graph_clusters: Dict[str, List[str]] = {}
        for name, cluster in clustering.clusters.items():
            self._graph_clusters.setdefault(cluster.graph, []).append(name)
        for names in self._graph_clusters.values():
            names.sort()
        self._dp_memo: Dict[tuple, Tuple[int, float]] = {}
        self._demand_memo: Dict[tuple, Tuple[int, float]] = {}

    def _graph_signature(self, graph_name: str, arch: Architecture) -> tuple:
        """Everything the deadline DP of ``graph_name`` depends on."""
        cluster_alloc = arch.cluster_alloc
        boot_fn = self._boot_fn
        parts = []
        for cname in self._graph_clusters.get(graph_name, ()):
            placement = cluster_alloc.get(cname)
            if placement is None:
                parts.append(None)
                continue
            pe_id, _ = placement
            pe = arch.pe(pe_id)
            kind = pe.pe_type.kind
            if kind is PEKind.PROCESSOR or kind is PEKind.ASIC:
                parts.append((pe_id, pe.pe_type.name))
            else:
                own = tuple(sorted(pe.modes_of_cluster(cname)))
                parts.append((
                    pe_id,
                    pe.pe_type.name,
                    own,
                    tuple(boot_fn(pe, m) for m in own),
                ))
        return tuple(parts)

    def _dp_stats(self, graph_name: str, arch: Architecture) -> Tuple[int, float]:
        graph = self.spec.graph(graph_name)
        return deadline_floor_stats(
            graph, arch, self.clustering, self.boot_time_fn
        )

    def _overload_stats(self, arch: Architecture) -> Tuple[int, float]:
        """(overload count, excess) of the full demand floor; memoized
        under the exact (cluster -> PE, PE type) map the floor reads
        (copy counts, context-switch times, and WCETs are fixed for
        the bound's lifetime; the type name determines the rest)."""
        cluster_alloc = arch.cluster_alloc
        key = tuple(sorted(
            (cname, placement[0], arch.pe(placement[0]).pe_type.name)
            for cname, placement in cluster_alloc.items()
        ))
        stats = self._demand_memo.get(key)
        if stats is not None:
            return stats
        overloads = 0
        excess = 0.0
        demand = demand_floor(arch, self.clustering, self.spec, self.assoc)
        capacity = self.assoc.hyperperiod
        threshold = capacity * _OVERLOAD_TOLERANCE * (1.0 + DEMAND_MARGIN)
        for pe_id in sorted(demand):
            if demand[pe_id] > threshold:
                overloads += 1
                excess += demand[pe_id] / capacity - 1.0
        if len(self._demand_memo) >= self._DP_MEMO_MAX:
            self._demand_memo.clear()
        self._demand_memo[key] = (overloads, excess)
        return overloads, excess

    def badness_floor(self, arch: Architecture) -> Tuple[float, float, float]:
        """A valid lower bound of ``EvalResult.badness()`` for any
        full-scope evaluation of ``arch``."""
        overloads, excess = self._overload_stats(arch)

        misses = 0
        lateness = 0.0
        memo = self._dp_memo
        for name in self.spec.graph_names():
            key = (name, self._graph_signature(name, arch))
            stats = memo.get(key)
            if stats is None:
                if len(memo) >= self._DP_MEMO_MAX:
                    memo.clear()
                stats = memo[key] = self._dp_stats(name, arch)
            misses += stats[0]
            lateness += stats[1]
        return (
            misses + overloads,
            (lateness + excess) * _SUM_DEFLATE,
            arch.cost,
        )
