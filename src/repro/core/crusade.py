"""The CRUSADE co-synthesis algorithm (Section 5, Figure 5).

Flow (each step is a function in :mod:`repro.core.stages`):

1. **Pre-processing** -- validate the specification, build the
   association array (hyperperiod copies), assign deadline-based
   priority levels and cluster the task graphs along critical paths.
2. **Synthesis** -- allocate clusters in decreasing priority order
   (or biggest first, under ``CrusadeConfig(policy="largest-first")``).
   For each cluster an allocation array of candidate placements is
   built (cheapest first) and each candidate is applied to a trial
   architecture, scheduled, and checked against every deadline; the
   first feasible candidate wins, priorities are recomputed with the
   new allocation, and the loop continues.  When no candidate is
   feasible the least-infeasible one is kept (heuristics can fail;
   the final result is flagged infeasible).
3. **Dynamic reconfiguration generation** -- the reconfiguration
   controller interface is synthesized (Section 4.4) and the Figure 3
   merge procedure folds compatible PPEs into multi-mode devices while
   deadlines and the boot-time requirement hold.

This module is the public entry point; the steps, the
:func:`~repro.core.stages.pipeline.synthesize` sequence that runs
them, and the shared :class:`~repro.core.stages.context.
SynthesisContext` live in :mod:`repro.core.stages`.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.cluster.clustering import ClusteringResult
from repro.core.config import CrusadeConfig
from repro.core.report import CoSynthesisResult
from repro.core.stages.context import SynthesisContext
from repro.core.stages.pipeline import synthesize
from repro.graph.spec import SystemSpec
from repro.obs.trace import Tracer, resolve_tracer
from repro.perf.engine import IncrementalEngine
from repro.perf.store import resolve_store
from repro.resources.library import ResourceLibrary


def crusade(
    spec: SystemSpec,
    library: Optional[ResourceLibrary] = None,
    config: Optional[CrusadeConfig] = None,
    clustering: Optional[ClusteringResult] = None,
    baseline: Optional[CoSynthesisResult] = None,
    tracer: Optional[Tracer] = None,
    engine: Optional[IncrementalEngine] = None,
) -> CoSynthesisResult:
    """Co-synthesize an architecture for ``spec``.

    Returns a :class:`~repro.core.report.CoSynthesisResult`; when the
    heuristic cannot meet every deadline the result is returned with
    ``feasible=False`` rather than raising, so callers can inspect how
    close it came.  The Figure 5 steps run in order in
    :func:`~repro.core.stages.pipeline.synthesize`.  ``clustering``
    lets CRUSADE-FT substitute its fault-tolerance-level clustering
    (Section 6); the clustering step is then skipped.

    When dynamic reconfiguration is enabled the driver explores two
    routes and keeps the cheaper feasible one, mirroring the paper's
    two entry points into reconfiguration (Sections 4.1-4.2): (a)
    mode-aware allocation followed by PPE merging, and (b) the plain
    single-mode architecture improved by the Figure 3 merge loop.
    Because route (b) starts from the baseline and only accepts
    cost-decreasing merges, reconfiguration never yields a costlier
    architecture than the baseline.  ``baseline`` lets callers that
    already synthesized the reconfiguration-free architecture (the
    Table 2 harness) donate it; otherwise it is computed internally.

    ``tracer`` (see :mod:`repro.obs`) collects per-phase timers,
    counters and structured events; the default null tracer makes
    every instrumentation site a no-op, and tracing never changes the
    synthesized result -- only observes it.

    ``engine`` (see :mod:`repro.perf`) is the incremental evaluation
    engine every candidate is scheduled through; by default one is
    created per call.  The nested baseline synthesis of route (b)
    shares its parent's engine, so fragments cached during the main
    allocation are reused there.  Any object with the engine's
    ``evaluate`` / ``cache_info`` / ``bind_store`` / ``store``
    surface may be donated -- the equivalence suites donate the
    reference scheduler's engine and get byte-identical results.

    ``config.policy`` picks the cluster allocation order:
    ``"default"`` is the paper's decreasing priority,
    ``"largest-first"`` places the biggest clusters first.  Candidate
    order (cheapest first) and merge acceptance (every deadline holds
    and the cost strictly falls) are the paper's fixed rules.

    ``config.cache_dir`` opens the persistent content-addressed
    synthesis store
    (:mod:`repro.perf.store`): an exact resubmission returns the
    cached result, bound to the caller's ``spec`` object, without
    synthesizing, a near-hit resubmission warm-starts the engine's
    fragment cache from disk, and either way the returned result is
    byte-identical to a cold run.  Calls
    donating a ``clustering``, ``baseline`` or ``engine`` bypass the
    full-result tier -- their inputs are not captured by its key --
    but still share fragments through the donated or created engine.
    """
    started = time.perf_counter()
    if config is None:
        config = CrusadeConfig()
    store = resolve_store(config)
    resolved_tracer = resolve_tracer(tracer)
    exact_key = None
    if store is not None and clustering is None and baseline is None \
            and engine is None:
        # No library named: the key uses the default catalog's digest,
        # memoized per process, so an exact hit builds no library.
        exact_key = store.result_key(spec, library, config)
        cached = store.load_result(
            exact_key, tracer=resolved_tracer, spec=spec
        )
        if cached is not None:
            resolved_tracer.incr("perf.store.hit")
            elapsed = time.perf_counter() - started
            cached.cpu_seconds = elapsed
            if resolved_tracer.enabled:
                resolved_tracer.event(
                    "store.hit", system=spec.name, key=exact_key,
                    feasible=cached.feasible, cost=cached.cost,
                )
                cached.stats = resolved_tracer.stats(total_seconds=elapsed)
            return cached
        resolved_tracer.incr("perf.store.miss")
    ctx = SynthesisContext.begin(
        spec,
        library=library,
        config=config,
        clustering=clustering,
        baseline=baseline,
        tracer=resolved_tracer,
        engine=engine,
    )
    if store is not None and ctx.engine.store is None:
        from repro.perf.warmstart import bind_engine

        bind_engine(ctx.engine, store, spec, ctx.library, config,
                    resolved_tracer)
    result = synthesize(ctx)
    if exact_key is not None:
        from repro.perf.warmstart import index_record

        # The entry leaves out the spec and the run-varying stats (a
        # traced hit snapshots its own).
        store.save_result(exact_key, result, tracer=resolved_tracer)
        store.save_index(
            spec.name, index_record(spec, ctx.library, config, exact_key)
        )
    return result
