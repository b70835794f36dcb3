"""Mode-merge stage (Sections 4.1-4.2: the two reconfiguration routes).

When dynamic reconfiguration is enabled the pipeline explores two
routes and keeps the cheaper feasible one, mirroring the paper's two
entry points into reconfiguration: (a) the mode-aware allocation
followed by PPE merging, and (b) the plain single-mode baseline
improved by the Figure 3 merge loop.  Because route (b) starts from
the baseline and only accepts cost-decreasing merges, reconfiguration
never yields a costlier architecture than the baseline.

Routes are data here (:class:`MergeRoute`), not duplicated control
flow: each names its seed architecture and the order of the list is
the tie-break (route (a) wins cost ties).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.arch.architecture import Architecture
from repro.core.stages.base import Stage
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


@dataclass
class MergeRoute:
    """One reconfiguration entry point: a named merge seed."""

    #: Route key ("a" or "b"), used in debug logs.
    key: str
    #: Lazy seed architecture builder, returning ``None`` when the
    #: route is closed (its precondition -- a feasible seed -- does
    #: not hold).  Lazy so side effects (route (b) synthesizes the
    #: baseline on demand) happen in route order.
    seed: Callable[[], Optional[Architecture]]


class ModeMerge(Stage):
    """Merge compatible PPEs into multi-mode devices (Figure 3)."""

    name = "merge"

    def should_run(self, ctx: SynthesisContext) -> bool:
        """Only when dynamic reconfiguration is enabled."""
        return ctx.config.reconfiguration

    def run(self, ctx: SynthesisContext) -> None:
        """Merge along every open route; keep the cheapest feasible."""
        resolved_compat = ctx.compat
        if resolved_compat is None:
            resolved_compat = CompatibilityAnalysis.from_schedule(
                ctx.spec, ctx.full.schedule
            )
        outcomes: List[Tuple[Optional[EvalResult], Dict[str, int]]] = []
        for route in self.routes(ctx):
            start_arch = route.seed()
            if start_arch is None:
                outcomes.append((None, {}))
                continue
            outcomes.append(
                self.merged_candidate(ctx, resolved_compat, start_arch)
            )
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "route a: %s; route b: %s",
                *(
                    "none" if candidate is None
                    else "$%.0f %s" % (candidate.cost, candidate.feasible)
                    for candidate, _ in outcomes
                ),
            )
        chosen_route = None
        for candidate, stats in outcomes:
            if candidate is None or not candidate.feasible:
                continue
            if chosen_route is None or candidate.cost < chosen_route[0].cost:
                chosen_route = (candidate, stats)
        if chosen_route is not None:
            ctx.best, ctx.merge_stats = chosen_route
            ctx.arch = ctx.best.arch
            ctx.interface = getattr(ctx.best, "interface", None)

    def routes(self, ctx: SynthesisContext) -> List[MergeRoute]:
        """The route list, in tie-break order.

        Route (a) merges the mode-aware allocation (only worth
        pursuing when the allocation phase met every deadline); route
        (b) merges the plain single-mode baseline (Figure 3's entry
        when compatibility vectors were not specified), synthesizing
        the baseline first if the caller did not donate one.
        """
        def seed_a() -> Optional[Architecture]:
            """The allocation-phase architecture, when feasible."""
            return ctx.arch if ctx.full.feasible else None

        def seed_b() -> Optional[Architecture]:
            """A clone of the (possibly just synthesized) baseline."""
            self.ensure_baseline(ctx)
            return ctx.baseline.arch.clone() if ctx.baseline.feasible else None

        return [MergeRoute(key="a", seed=seed_a),
                MergeRoute(key="b", seed=seed_b)]

    def ensure_baseline(self, ctx: SynthesisContext) -> None:
        """Synthesize the reconfiguration-free baseline if absent.

        The baseline synthesis re-enters the full pipeline (sharing
        the parent's tracer, engine and clustering) under the caller's
        configuration with reconfiguration turned off, and records its
        time under the ordinary phase names: the exclusive phase
        timers pause this stage's "merge" window while the nested
        stages run.  Store plumbing rides along for faithfulness only:
        the nested synthesis enters via ``SynthesisContext.begin``, so
        the full-result tier never sees this config, and the shared
        parent engine already carries the fragment-tier binding.
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

    def merged_candidate(
        self,
        ctx: SynthesisContext,
        resolved_compat: CompatibilityAnalysis,
        start_arch: Architecture,
    ) -> Tuple[Optional[EvalResult], Dict[str, int]]:
        """Interface-synthesize then Figure 3-merge an architecture.

        Priority levels are recomputed for the start architecture:
        routes carry different allocations, and the scheduler's order
        must reflect the one it is verifying.
        """
        route_context = allocation_aware_context(
            ctx.library, start_arch, ctx.clustering
        )
        route_priorities = compute_priorities(ctx.spec, route_context)
        evaluator = self.make_interface_evaluator(ctx, route_priorities)
        seeded = evaluator(start_arch)
        if seeded is None or not seeded.feasible:
            return None, {}
        accept = ctx.policy.accept_merge
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
            accept=accept,
        )
        stats = {
            "accepted": outcome.merges_accepted,
            "rejected": outcome.merges_rejected,
            "mode_combines": outcome.mode_combines,
            "rounds": outcome.rounds,
        }
        return outcome.result, stats

    def make_interface_evaluator(
        self, ctx: SynthesisContext, route_priorities
    ) -> Callable[[Architecture], Optional[EvalResult]]:
        """Trial evaluator bound to one route's priority levels:
        interface synthesis + full schedule.

        Under the paper's feasible-and-cheaper acceptance rule every
        consumer of this evaluator (the route seeding check, the
        merge array, mode combining) rejects any verdict that is not
        feasible, so a single proven violation dooms the trial: the
        scheduler runs under a zero-violation bound and aborts early.
        A custom ``accept_merge`` hook may accept infeasible
        verdicts, so it disables the bound -- the same gating as the
        merge loop's dollar-cost prune.  An aborted trial is rejected
        as if interface synthesis had failed (reason counters book it
        as ``interface`` rather than ``deadline``; the decision is
        identical).
        """
        bound = None
        if ctx.config.bound_abort and ctx.policy.accept_merge is None:
            bound = (0, 0.0, 0.0)

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
