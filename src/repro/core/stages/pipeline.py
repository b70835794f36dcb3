"""The Figure 5 flow and the pipeline entry point.

:func:`synthesize` calls the steps in order, each gate written where
its step runs; ``crusade()`` is a thin wrapper over it, and CRUSADE-FT
and the campaign runner go through ``crusade()`` unchanged.  The
allocation, repair and merge steps live in their own modules; the
short steps are the private functions below.  The merge step
re-enters :func:`synthesize` for the route (b) baseline, importing it
lazily from here to avoid a cycle.

Every step that runs is timed under its tracer phase and counted as
``stage.<name>.runs``; a gated-out step is counted as
``stage.<name>.skipped`` and never entered, so phase timers only ever
contain steps that did work.  Finalize is counted but unphased: it
snapshots the phase timers into the result's stats, which must not
happen inside an open phase window.
"""

from __future__ import annotations

import time

from repro.errors import SynthesisError
from repro.cluster.clustering import cluster_spec, trivial_clustering
from repro.cluster.priority import PriorityContext
from repro.core.report import CoSynthesisResult
from repro.core.stages.allocation import allocate
from repro.core.stages.context import SynthesisContext
from repro.core.stages.modemerge import merge_modes
from repro.core.stages.repair import repair_deadlines
from repro.graph.association import AssociationArray
from repro.graph.validate import validate_spec
from repro.reconfig.compatibility import CompatibilityAnalysis
from repro.reconfig.interface import synthesize_interface
from repro.alloc.evaluate import evaluate_architecture


def synthesize(ctx: SynthesisContext) -> CoSynthesisResult:
    """Run the Figure 5 steps over ``ctx`` and return the result."""
    _step(ctx, "preprocess", _preprocess)
    _step(ctx, "clustering", _cluster, ctx.clustering is None)
    _step(ctx, "allocation", allocate)
    _step(ctx, "full_check", _full_check)
    _step(ctx, "repair", repair_deadlines, not ctx.full.report.all_met)
    _step(ctx, "merge", merge_modes, ctx.config.reconfiguration)
    _step(ctx, "interface", _synthesize_interface, ctx.interface is None)
    ctx.tracer.incr("stage.finalize.runs")
    return _finalize(ctx)


def _step(ctx: SynthesisContext, name: str, run, when: bool = True) -> None:
    """Run ``run(ctx)`` under phase ``name``, or count it skipped."""
    if not when:
        ctx.tracer.incr("stage.%s.skipped" % name)
        return
    ctx.tracer.incr("stage.%s.runs" % name)
    with ctx.tracer.phase(name):
        run(ctx)


def _preprocess(ctx: SynthesisContext) -> None:
    """Section 5, step 1 minus clustering: validate the library and
    specification, build the association array (hyperperiod copies),
    prime the pessimistic priority context and -- when the
    specification carries explicit compatibility vectors and
    reconfiguration is enabled -- the compatibility analysis the
    allocation and merge steps consult."""
    ctx.library.validate()
    ctx.warnings = validate_spec(ctx.spec, ctx.library)
    ctx.assoc = AssociationArray(
        ctx.spec, max_explicit_copies=ctx.config.max_explicit_copies
    )
    ctx.pessimistic = PriorityContext.pessimistic(ctx.library)
    if ctx.config.reconfiguration and ctx.spec.has_explicit_compatibility:
        ctx.compat = CompatibilityAnalysis.from_spec(ctx.spec)


def _cluster(ctx: SynthesisContext) -> None:
    """Fold tasks into clusters along deadline-critical paths (or
    trivially, when clustering is disabled).  Gated out when the
    caller donated a clustering: CRUSADE-FT substitutes its
    fault-tolerance-level clustering and times it under its own
    ``ft_clustering`` phase."""
    if ctx.config.clustering:
        ctx.clustering = cluster_spec(
            ctx.spec,
            ctx.library,
            context=ctx.pessimistic,
            delay_policy=ctx.config.delay_policy,
            max_cluster_size=ctx.config.max_cluster_size,
        )
    else:
        ctx.clustering = trivial_clustering(ctx.spec, ctx.library)


def _full_check(ctx: SynthesisContext) -> None:
    """Schedule the whole system once on the allocated architecture.

    The allocation step's fast inner loop verifies only
    resource-coupled graphs; this verdict seeds ``best`` so repair and
    the reconfiguration routes start from a trustworthy one.
    """
    ctx.full = evaluate_architecture(
        ctx.spec, ctx.assoc, ctx.clustering, ctx.arch, ctx.priorities,
        preemption=ctx.config.preemption, tracer=ctx.tracer,
        engine=ctx.engine,
    )
    ctx.best = ctx.full


def _synthesize_interface(ctx: SynthesisContext) -> None:
    """Section 4.4: the reconfiguration controller interface.

    Gated out when a merge route already delivered a plan.  Otherwise
    the final architecture still needs one, with the boot-time
    requirement halved until the schedule absorbs the chosen boot
    times.
    """
    requirement = ctx.spec.boot_time_requirement
    for _ in range(ctx.config.interface_retries + 1):
        try:
            plan = synthesize_interface(ctx.arch, requirement)
        except SynthesisError:
            break
        verdict = evaluate_architecture(
            ctx.spec,
            ctx.assoc,
            ctx.clustering,
            ctx.arch,
            ctx.priorities,
            boot_time_fn=plan.boot_time_fn(),
            preemption=ctx.config.preemption,
            tracer=ctx.tracer,
            engine=ctx.engine,
        )
        if verdict.feasible or not ctx.full.feasible:
            ctx.best = verdict
            ctx.interface = plan
            break
        requirement /= 2.0


def _finalize(ctx: SynthesisContext) -> CoSynthesisResult:
    """Package the winning verdict (and its stats when tracing)."""
    # Feasibility is judged on the architecture actually returned: the
    # allocation step may have kept a least-infeasible placement and
    # still been rescued by repair or by the baseline-seeded merge
    # route.
    feasible = ctx.best.report.all_met
    cpu_seconds = time.perf_counter() - ctx.started
    result = CoSynthesisResult(
        spec=ctx.spec,
        arch=ctx.best.arch,
        schedule=ctx.best.schedule,
        report=ctx.best.report,
        clustering=ctx.clustering,
        interface=ctx.interface,
        feasible=feasible,
        cpu_seconds=cpu_seconds,
        reconfiguration_enabled=ctx.config.reconfiguration,
        merge_stats=ctx.merge_stats,
        warnings=ctx.warnings,
    )
    if ctx.tracer.enabled:
        ctx.tracer.event(
            "synthesis.done", system=ctx.spec.name, feasible=feasible,
            cost=ctx.best.arch.cost,
        )
        result.stats = ctx.tracer.stats(total_seconds=cpu_seconds)
        # Engine cache gauges, set on the snapshot (not incr'd through
        # the tracer) so the nested baseline's earlier finalize cannot
        # double-count them.
        for name, value in ctx.engine.cache_info().items():
            result.stats.counters["perf.cache." + name] = value
    return result
