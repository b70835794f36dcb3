"""Allocation step (Section 5, step 2: the synthesis inner loop).

Clusters are allocated in the order ``CrusadeConfig.policy`` names
(the paper's decreasing priority by default).  For each cluster an
allocation array of candidate placements is built (cheapest first)
and scored as copy-on-write overlays on the working architecture, each
evaluated through the run's engine and fed to the
:class:`CandidateSelection` core that makes the first-feasible /
least-infeasible choice.  The winning candidate is committed and
priorities are recomputed with the new allocation.

When no candidate is feasible the least-infeasible one is kept
(heuristics can fail; the final result is flagged infeasible), with
pruned candidates reconstructed best-bound-first so dominance pruning
never changes the choice.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import List, Optional, Set

from repro.errors import AllocationError, SynthesisError
from repro.arch.architecture import Architecture
from repro.cluster.clustering import CLUSTER_ORDERS, Cluster
from repro.cluster.priority import recompute_priorities
from repro.core.stages.context import SynthesisContext
from repro.core.stages.support import (
    allocation_aware_context,
    compute_priorities,
    coupled_graphs,
)
from repro.perf.prune import CandidatePruner
from repro.sched.scheduler import ScheduleAbort
from repro.alloc.array import build_allocation_array
from repro.alloc.evaluate import (
    EvalResult,
    apply_option,
    apply_option_cow,
    evaluate_architecture,
)

_log = logging.getLogger("repro.crusade")


class CandidateSelection:
    """First-feasible / least-infeasible bookkeeping for one cluster.

    The scoring loop's strict improvement rule is the argmin of
    ``(badness, seq)``, where ``seq`` numbers candidates in
    consideration order across strategies; tracking the key explicitly
    lets pruned candidates (which carry admissible badness *floors*)
    reconstruct the identical choice.
    """

    def __init__(self) -> None:
        """Start with nothing chosen and nothing to fall back on."""
        self.chosen: Optional[EvalResult] = None
        self.chosen_touched: Optional[Set[str]] = None
        #: Whether the final choice came from the fallback path.
        self.from_fallback: bool = False
        self.fallback: Optional[EvalResult] = None
        self.fallback_key: Optional[tuple] = None
        #: Deferred ``(floor, seq, option, strategy)`` pruned entries.
        self.pruned: List[tuple] = []
        self.seq = 0

    @property
    def done(self) -> bool:
        """Whether a feasible candidate has been chosen."""
        return self.chosen is not None

    def advance(self) -> int:
        """Number the next considered candidate; returns its seq."""
        self.seq += 1
        return self.seq

    def choose(
        self, verdict: Optional[EvalResult], touched: Optional[Set[str]] = None
    ) -> None:
        """Record the winning feasible candidate's verdict."""
        self.chosen = verdict
        self.chosen_touched = touched

    def defer_pruned(self, floor: tuple, option, strategy) -> None:
        """Park a pruned candidate for possible fallback evaluation."""
        self.pruned.append((floor, self.seq, option, strategy))

    def offer(self, badness: tuple, make_verdict) -> None:
        """Offer an infeasible candidate at the current seq.

        Keeps the argmin of ``(badness, seq)``.  ``make_verdict`` is
        called only when the offer improves (the copy-on-write scorer
        clones the applied architecture lazily).
        """
        key = (badness, self.seq)
        if self.fallback_key is None or key < self.fallback_key:
            self.fallback_key = key
            self.fallback = make_verdict()


def allocate(ctx: SynthesisContext) -> None:
    """Allocate all clusters in the configured order."""
    ctx.arch = Architecture(ctx.library)
    ctx.priorities = compute_priorities(ctx.spec, ctx.pessimistic)
    fast = ctx.config.use_fast_inner_loop(ctx.spec.total_tasks)
    # Allocation-aware priorities reuse previous values for graphs the
    # placement cannot have perturbed -- but only once the previous
    # values were themselves allocation-aware (the pessimistic
    # pre-allocation levels price intra-cluster edges differently).
    allocation_aware = False
    for cluster in CLUSTER_ORDERS[ctx.config.policy](ctx.clustering):
        ctx.tracer.incr("alloc.clusters")
        selection = _allocate_cluster(ctx, cluster, fast)
        _commit(ctx, cluster, selection, allocation_aware)
        allocation_aware = True


# -- scoring ----------------------------------------------------------
def _allocate_cluster(
    ctx: SynthesisContext, cluster: Cluster, fast: bool
) -> CandidateSelection:
    """Score candidates strategy by strategy until one is chosen."""
    selection = CandidateSelection()
    pruner = CandidatePruner(
        ctx.spec, ctx.assoc, ctx.clustering, cluster,
        tables=ctx.pessimistic.tables,
    )
    for strategy in ctx.config.link_strategies:
        # The cluster's allocation array, cheapest first.
        options = build_allocation_array(
            cluster,
            ctx.arch,
            ctx.clustering,
            ctx.spec,
            ctx.config.delay_policy,
            compat=ctx.compat,
            max_existing_options=ctx.config.max_existing_options,
            allow_new_modes=ctx.config.reconfiguration,
            tracer=ctx.tracer,
        )
        if not options:
            continue
        _score_cow(ctx, cluster, options, strategy, selection, pruner, fast)
        if selection.done:
            break
    _resolve_fallback(ctx, cluster, selection, fast)
    return selection


def _incumbent_bound(selection: CandidateSelection) -> Optional[tuple]:
    """The badness tuple in-flight evaluations may abort against.

    The current least-infeasible incumbent: an aborted candidate
    provably exceeds its violation count, so it can neither be
    feasible nor win the ``(badness, seq)`` argmin -- dropping it
    changes nothing (see :class:`~repro.sched.scheduler.ScheduleAbort`).
    None (no incumbent yet) evaluates to completion.
    """
    if selection.fallback_key is not None:
        return selection.fallback_key[0]
    return None


def _evaluate_candidate(
    ctx: SynthesisContext, cluster: Cluster, option, strategy, fast: bool
) -> Optional[EvalResult]:
    """Evaluate one candidate on a cloned architecture."""
    trial = ctx.arch.clone()
    try:
        apply_option(
            option, trial, cluster, ctx.clustering, ctx.spec, strategy
        )
    except AllocationError:
        return None
    graphs = (
        coupled_graphs(trial, ctx.clustering, cluster.graph) if fast else None
    )
    return evaluate_architecture(
        ctx.spec,
        ctx.assoc,
        ctx.clustering,
        trial,
        ctx.priorities,
        preemption=ctx.config.preemption,
        graphs=graphs,
        tracer=ctx.tracer,
        engine=ctx.engine,
    )


def _score_cow(
    ctx: SynthesisContext,
    cluster: Cluster,
    options: List,
    strategy: str,
    selection: CandidateSelection,
    pruner: CandidatePruner,
    fast: bool,
) -> None:
    """Score options as copy-on-write overlays on the working
    architecture, reverting each unless it wins."""
    for option in options:
        ctx.tracer.incr("alloc.options.considered")
        selection.advance()
        try:
            handle = apply_option_cow(
                option, ctx.arch, cluster, ctx.clustering, ctx.spec,
                strategy,
            )
        except AllocationError:
            ctx.tracer.incr("alloc.options.apply_failed")
            continue
        ctx.tracer.incr("perf.cow.applies")
        keep = False
        try:
            graphs = (
                coupled_graphs(ctx.arch, ctx.clustering, cluster.graph)
                if fast
                else None
            )
            cut = pruner.bound(ctx.arch, graphs, ctx.tracer)
            if cut is not None:
                ctx.tracer.incr("prune.cut")
                ctx.tracer.incr("prune.cut." + cut.reason)
                selection.defer_pruned(cut.floor, option, strategy)
                continue
            ctx.tracer.incr("prune.kept")
            try:
                verdict = evaluate_architecture(
                    ctx.spec,
                    ctx.assoc,
                    ctx.clustering,
                    ctx.arch,
                    ctx.priorities,
                    preemption=ctx.config.preemption,
                    graphs=graphs,
                    tracer=ctx.tracer,
                    engine=ctx.engine,
                    bound=_incumbent_bound(selection),
                )
            except ScheduleAbort as abort:
                # The finally block reverts the overlay (keep is still
                # False); the candidate is simply dropped.
                ctx.tracer.incr("sched.abort")
                ctx.tracer.incr("sched.abort." + abort.reason)
                continue
            if verdict.feasible:
                selection.choose(verdict, touched=handle.touched_pes)
                keep = True
            else:
                ctx.tracer.incr("alloc.options.infeasible")
                selection.offer(
                    verdict.badness(),
                    make_verdict=lambda: replace(
                        verdict, arch=ctx.arch.clone()
                    ),
                )
        finally:
            if keep:
                ctx.tracer.incr("perf.cow.commits")
            else:
                handle.revert()
                ctx.tracer.incr("perf.cow.reverts")
        if selection.done:
            break


# -- fallback resolution ----------------------------------------------
def _resolve_fallback(
    ctx: SynthesisContext,
    cluster: Cluster,
    selection: CandidateSelection,
    fast: bool,
) -> None:
    """Settle the least-infeasible choice when nothing was feasible.

    Pruned candidates are provably infeasible but may still be the
    least-infeasible fallback; their floors are admissible badness
    lower bounds, so evaluating them best-bound-first and skipping any
    whose ``(floor, seq)`` cannot beat the incumbent ``(badness, seq)``
    yields the exhaustive loop's exact choice.
    """
    if selection.chosen is None and selection.pruned:
        selection.pruned.sort(key=lambda item: (item[0], item[1]))
        for floor, pseq, option, pstrategy in selection.pruned:
            if selection.fallback_key is not None and (
                (tuple(floor), pseq) >= selection.fallback_key
            ):
                ctx.tracer.incr("prune.fallback_skipped")
                continue
            ctx.tracer.incr("prune.fallback_evals")
            verdict = _evaluate_candidate(ctx, cluster, option, pstrategy,
                                          fast)
            if verdict is None:
                continue
            key = (verdict.badness(), pseq)
            if selection.fallback_key is None or key < selection.fallback_key:
                selection.fallback = verdict
                selection.fallback_key = key
    if selection.chosen is None:
        if selection.fallback is None:
            raise SynthesisError(
                "no allocation option exists for cluster %r" % (cluster.name,)
            )
        selection.chosen = selection.fallback
        selection.chosen_touched = None
        selection.from_fallback = True
        ctx.tracer.incr("alloc.clusters.fallback")
        _log.debug(
            "cluster %s: NO feasible option, kept least-infeasible",
            cluster.name,
        )


# -- commit -----------------------------------------------------------
def _commit(
    ctx: SynthesisContext,
    cluster: Cluster,
    selection: CandidateSelection,
    allocation_aware: bool,
) -> None:
    """Adopt the chosen architecture and refresh priority levels.

    ``allocation_aware`` says whether ``ctx.priorities`` already
    reflect a partial allocation, so untouched graphs may keep theirs.
    """
    ctx.arch = selection.chosen.arch
    placement = ctx.arch.placement_of(cluster.name)
    ctx.tracer.event(
        "cluster.placed",
        cluster=cluster.name,
        graph=cluster.graph,
        pe=placement[0],
        mode=placement[1],
        feasible=not selection.from_fallback,
    )
    _log.debug(
        "cluster %s (graph %s, %d gates, %d pins) -> %s mode %d",
        cluster.name,
        cluster.graph,
        cluster.area_gates,
        cluster.pins,
        placement[0],
        placement[1],
    )
    context = allocation_aware_context(
        ctx.pessimistic, ctx.arch, ctx.clustering
    )
    if allocation_aware and selection.chosen_touched is not None:
        dirty = {cluster.graph}
        for name, (pe_id, _) in ctx.arch.cluster_alloc.items():
            if pe_id in selection.chosen_touched:
                dirty.add(ctx.clustering.clusters[name].graph)
        ctx.priorities = recompute_priorities(
            ctx.spec, context, ctx.priorities, dirty, ctx.tracer
        )
    else:
        ctx.priorities = compute_priorities(ctx.spec, context)
