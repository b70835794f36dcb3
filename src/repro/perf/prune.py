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

Two bounds cut allocation candidates:

* **Target-PE demand floor** -- the candidate's target PE's busy time
  over the hyperperiod (:func:`repro.sched.bounds.demand_floor`).
  Only the target's demand grew, so only the target is checked.
  Summation order differs from the evaluator's, so a relative
  :data:`DEMAND_MARGIN` guards the cut.
* **Finish-time floor** -- the copy-0 critical path over best-case
  task durations with free communication
  (:func:`repro.sched.bounds.deadline_floor_stats`).  Bit-exactly
  dominated by any real schedule, so ``floor - deadline > TIME_EPS``
  proves a deadline miss with no margin at all.

Repair re-homings are checked against :class:`RepairBound`, the
demand floor over every PE of the full-scope architecture.

Neither bound memoizes a verdict: each call prices the architecture
it is handed, so a verdict never answers for another link strategy's
links or another architecture's cost.  What is static for the run --
each graph's rows and the demand floor's per-cluster totals -- comes
from the run's :class:`~repro.graph.taskgraph.GraphTableCache`.

Pruning is always on.  The exhaustive evaluation the identity suites,
CI and the inner-loop benchmark compare against is the test oracle
``tests.sched.reference_scheduler.exhaustive``, which makes both
bounds cut nothing.  Counter traffic: ``prune.cut`` / ``prune.kept``
plus per-reason ``prune.cut.deadline`` / ``prune.cut.overload`` /
``prune.cut.repair``, and ``prune.fallback_evals`` /
``prune.fallback_skipped`` for the deferred least-infeasible
reconstruction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.cluster.clustering import Cluster, ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.graph.taskgraph import GraphTableCache, GraphTables
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
    same ``graphs`` scope the evaluation would use.  Every call prices
    the architecture it is given, so a verdict is always the floor of
    the candidate actually applied, whichever link strategy built it.
    """

    def __init__(
        self,
        spec: SystemSpec,
        assoc: AssociationArray,
        clustering: ClusteringResult,
        cluster: Cluster,
        tables: Optional[GraphTableCache] = None,
    ) -> None:
        """Precompute this cluster iteration's bound inputs.

        ``tables`` is the run's graph table cache, which also keeps the
        run's demand-floor totals; without one the cluster's graph gets
        tables, and the pruner totals, of its own.
        """
        self.spec = spec
        self.assoc = assoc
        self.clustering = clustering
        self.cluster = cluster
        self.graph = spec.graph(cluster.graph)
        if tables is None:
            self.tables = GraphTables(self.graph)
            self.demand_totals: dict = {}
        else:
            self.tables = tables(self.graph)
            self.demand_totals = tables.demand_totals(clustering)

    def bound(
        self,
        arch: Architecture,
        graphs: Optional[List[str]],
        tracer: Tracer = NULL_TRACER,
    ) -> Optional[PruneVerdict]:
        """A :class:`PruneVerdict` when the applied candidate is
        provably infeasible, else None (evaluate it)."""
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
        # Overload floor, restricted to the candidate's target PE: the
        # only demand the option increased.  (Checking every PE would
        # also be admissible but would condemn *all* candidates
        # whenever an unrelated PE is already overloaded, sending the
        # whole frontier to the fallback reconstruction.)
        if pe.pe_type.kind is not PEKind.ASIC:
            demand = demand_floor(
                arch,
                self.clustering,
                scoped_spec,
                scoped_assoc,
                graph_names=scoped_spec.graph_names(),
                totals=self.demand_totals,
            ).get(pe_id, 0.0)
            capacity = scoped_assoc.hyperperiod
            threshold = capacity * _OVERLOAD_TOLERANCE * (1.0 + DEMAND_MARGIN)
            if demand > threshold:
                overloads = 1
                excess = (demand / capacity - 1.0) * _SUM_DEFLATE

        misses, lateness = deadline_floor_stats(
            self.graph, arch, self.clustering, self.tables
        )
        if not misses and not overloads:
            return None
        reason = "deadline" if misses else "overload"
        badness_floor = (
            misses + overloads,
            (lateness * _SUM_DEFLATE) + excess,
            arch.cost,
        )
        return PruneVerdict(reason, badness_floor)


class RepairBound:
    """Full-scope lexicographic badness floor for repair re-homings.

    Repair keeps a candidate only when it meets every deadline or
    strictly improves the incumbent's badness; a candidate whose floor
    is already >= the incumbent's badness can do neither (its first
    floor component is then necessarily positive, ruling out
    feasibility too), so it is skipped without scheduling.

    The floor counts the PEs whose demand floor overloads them, with
    their summed excess utilization.  The per-cluster busy-time totals
    the demand floor sums are memoized for the run; the floor itself
    is summed afresh for every re-homing.
    """

    def __init__(
        self,
        spec: SystemSpec,
        assoc: AssociationArray,
        clustering: ClusteringResult,
        tables: Optional[GraphTableCache] = None,
    ) -> None:
        """Hold the synthesis inputs.

        ``tables`` is the run's graph table cache, whose demand-floor
        totals the bound shares; without one it keeps its own.
        """
        self.spec = spec
        self.assoc = assoc
        self.clustering = clustering
        self._totals = (
            {} if tables is None else tables.demand_totals(clustering)
        )

    def badness_floor(self, arch: Architecture) -> Tuple[float, float, float]:
        """A valid lower bound of ``EvalResult.badness()`` for any
        full-scope evaluation of ``arch``."""
        overloads = 0
        excess = 0.0
        demand = demand_floor(
            arch, self.clustering, self.spec, self.assoc, totals=self._totals,
        )
        capacity = self.assoc.hyperperiod
        threshold = capacity * _OVERLOAD_TOLERANCE * (1.0 + DEMAND_MARGIN)
        for pe_id in sorted(demand):
            if demand[pe_id] > threshold:
                overloads += 1
                excess += demand[pe_id] / capacity - 1.0
        return (overloads, excess * _SUM_DEFLATE, arch.cost)
