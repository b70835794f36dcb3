"""Mode-merge step (Sections 4.1-4.2: the two reconfiguration routes).

When dynamic reconfiguration is enabled the pipeline explores two
routes and keeps the cheaper feasible one, mirroring the paper's two
entry points into reconfiguration: (a) the mode-aware allocation
followed by PPE merging, and (b) the plain single-mode baseline
improved by the Figure 3 merge loop.  Because route (b) starts from
the baseline and only accepts cost-decreasing merges, reconfiguration
never yields a costlier architecture than the baseline.  Route (a)
runs first and wins cost ties.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from repro.errors import SynthesisError
from repro.arch.architecture import Architecture
from repro.core.stages.context import SynthesisContext
from repro.core.stages.support import (
    allocation_aware_context,
    compute_priorities,
)
from repro.reconfig.compatibility import CompatibilityAnalysis
from repro.reconfig.interface import synthesize_interface
from repro.reconfig.merge import merge_reconfigurable_pes
from repro.sched.scheduler import ScheduleAbort
from repro.alloc.evaluate import EvalResult, evaluate_architecture

_log = logging.getLogger("repro.crusade")


def merge_modes(ctx: SynthesisContext) -> None:
    """Merge along both routes; keep the cheapest feasible result.

    Route (a) merges the mode-aware allocation, only worth pursuing
    when the allocation step met every deadline, and runs before the
    baseline is synthesized.  Route (b) merges a clone of the plain
    single-mode baseline (Figure 3's entry when compatibility vectors
    were not specified), synthesizing the baseline first if the caller
    did not donate one.
    """
    resolved_compat = ctx.compat
    if resolved_compat is None:
        resolved_compat = CompatibilityAnalysis.from_schedule(
            ctx.spec, ctx.full.schedule
        )
    route_a = route_b = (None, {})
    if ctx.full.feasible:
        route_a = _merged_candidate(ctx, resolved_compat, ctx.arch)
    ensure_baseline(ctx)
    if ctx.baseline.feasible:
        route_b = _merged_candidate(
            ctx, resolved_compat, ctx.baseline.arch.clone()
        )
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "route a: %s; route b: %s",
            *(
                "none" if candidate is None
                else "$%.0f %s" % (candidate.cost, candidate.feasible)
                for candidate, _ in (route_a, route_b)
            ),
        )
    chosen_route = None
    for candidate, stats in (route_a, route_b):
        if candidate is None or not candidate.feasible:
            continue
        if chosen_route is None or candidate.cost < chosen_route[0].cost:
            chosen_route = (candidate, stats)
    if chosen_route is not None:
        ctx.best, ctx.merge_stats = chosen_route
        ctx.arch = ctx.best.arch
        ctx.interface = getattr(ctx.best, "interface", None)


def ensure_baseline(ctx: SynthesisContext) -> None:
    """Synthesize the reconfiguration-free baseline if absent.

    The baseline synthesis re-enters the full pipeline (sharing the
    parent's tracer, engine and clustering) under the caller's
    configuration with reconfiguration turned off, and records its
    time under the ordinary phase names: the exclusive phase timers
    pause this step's "merge" window while the nested steps run.
    Store plumbing rides along for faithfulness only: the nested
    synthesis enters via ``SynthesisContext.begin``, so the
    full-result tier never sees this config, and the shared parent
    engine already carries the fragment-tier binding.
    """
    if ctx.baseline is not None:
        return
    from repro.core.stages.pipeline import synthesize

    baseline_config = replace(ctx.config, reconfiguration=False)
    ctx.baseline = synthesize(
        SynthesisContext.begin(
            ctx.spec, library=ctx.library, config=baseline_config,
            clustering=ctx.clustering, tracer=ctx.tracer,
            engine=ctx.engine,
        )
    )


def _merged_candidate(
    ctx: SynthesisContext,
    resolved_compat: CompatibilityAnalysis,
    start_arch: Architecture,
) -> Tuple[Optional[EvalResult], Dict[str, int]]:
    """Interface-synthesize then Figure 3-merge an architecture.

    Priority levels are recomputed for the start architecture: routes
    carry different allocations, and the scheduler's order must
    reflect the one it is verifying.
    """
    route_context = allocation_aware_context(
        ctx.library, start_arch, ctx.clustering
    )
    route_priorities = compute_priorities(ctx.spec, route_context)
    evaluator = _interface_evaluator(ctx, route_priorities)
    seeded = evaluator(start_arch)
    if seeded is None or not seeded.feasible:
        return None, {}
    outcome = merge_reconfigurable_pes(
        ctx.spec,
        ctx.clustering,
        resolved_compat,
        ctx.config.delay_policy,
        seeded,
        evaluator,
        combine_modes=ctx.config.combine_modes,
        tracer=ctx.tracer,
        prune=ctx.config.prune,
    )
    stats = {
        "accepted": outcome.merges_accepted,
        "rejected": outcome.merges_rejected,
        "mode_combines": outcome.mode_combines,
        "rounds": outcome.rounds,
    }
    return outcome.result, stats


def _interface_evaluator(
    ctx: SynthesisContext, route_priorities
) -> Callable[[Architecture], Optional[EvalResult]]:
    """Trial evaluator bound to one route's priority levels: interface
    synthesis + full schedule.

    Under the paper's feasible-and-cheaper acceptance rule every
    consumer of this evaluator (the route seeding check, the merge
    array, mode combining) rejects any verdict that is not feasible,
    so a single proven violation dooms the trial: the scheduler runs
    under a zero-violation bound and aborts early.  An aborted trial
    is rejected as if interface synthesis had failed (reason counters
    book it as ``interface`` rather than ``deadline``; the decision is
    identical).
    """
    bound = (0, 0.0, 0.0) if ctx.config.bound_abort else None

    def evaluate_with_interface(candidate: Architecture):
        """Score a merge trial, boot times from a fresh interface."""
        try:
            plan = synthesize_interface(
                candidate, ctx.spec.boot_time_requirement
            )
        except SynthesisError:
            return None
        try:
            verdict = evaluate_architecture(
                ctx.spec,
                ctx.assoc,
                ctx.clustering,
                candidate,
                route_priorities,
                boot_time_fn=plan.boot_time_fn(),
                preemption=ctx.config.preemption,
                tracer=ctx.tracer,
                engine=ctx.engine,
                bound=bound,
            )
        except ScheduleAbort as abort:
            ctx.tracer.incr("sched.abort")
            ctx.tracer.incr("sched.abort." + abort.reason)
            return None
        verdict.interface = plan  # type: ignore[attr-defined]
        return verdict

    return evaluate_with_interface
