"""Finalize stage: package the winning verdict as the public result.

Runs unphased (``phase_name`` is ``None``): it snapshots the tracer's
timers into the result's stats, which must not happen inside an open
phase window.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.report import CoSynthesisResult
from repro.core.stages.base import Stage
from repro.core.stages.context import SynthesisContext


class Finalize(Stage):
    """Build the :class:`~repro.core.report.CoSynthesisResult`."""

    name = "finalize"

    @property
    def phase_name(self) -> Optional[str]:
        """Unphased: this stage snapshots the phase timers itself."""
        return None

    def run(self, ctx: SynthesisContext) -> None:
        """Assemble ``ctx.result`` (and its stats when tracing)."""
        # Feasibility is judged on the architecture actually returned:
        # the allocation phase may have dead-ended
        # (allocation_feasible False) and still been rescued by repair
        # or by the baseline-seeded merge route.
        feasible = ctx.best.report.all_met
        cpu_seconds = time.perf_counter() - ctx.started
        ctx.result = CoSynthesisResult(
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
            ctx.result.stats = ctx.tracer.stats(total_seconds=cpu_seconds)
            # Engine cache gauges, set on the snapshot (not incr'd
            # through the tracer) so the nested baseline's earlier
            # finalize cannot double-count them.
            for name, value in ctx.engine.cache_info().items():
                ctx.result.stats.counters["perf.cache." + name] = value
