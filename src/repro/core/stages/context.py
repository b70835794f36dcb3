"""The shared mutable state of one synthesis run.

:class:`SynthesisContext` is the single object the pipeline stages
read and write; it owns what the old monolithic driver threaded
through nested closures -- specification, library, configuration,
clustering, association array, the working architecture, priority
levels, tracer, incremental engine, compatibility analysis and
validation warnings -- plus the evolving verdicts (``full``,
``best``) and reconfiguration artifacts (``interface``,
``merge_stats``) the later stages produce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.architecture import Architecture
from repro.cluster.clustering import ClusteringResult
from repro.cluster.priority import PriorityContext
from repro.core.config import CrusadeConfig
from repro.core.report import CoSynthesisResult
from repro.core.stages.policies import SynthesisPolicy, resolve_policy
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.obs.trace import Tracer, resolve_tracer
from repro.perf.engine import IncrementalEngine
from repro.reconfig.compatibility import CompatibilityAnalysis
from repro.reconfig.interface import InterfacePlan
from repro.resources.catalog import default_library
from repro.resources.library import ResourceLibrary
from repro.alloc.evaluate import EvalResult


@dataclass
class SynthesisContext:
    """Everything one ``crusade()`` run knows, in one place.

    Stages receive the context, mutate their slice of it, and leave
    the rest alone; :mod:`repro.core.stages.base` documents which
    stage owns which fields.
    """

    # -- inputs (fixed for the whole run) ------------------------------
    spec: SystemSpec
    library: ResourceLibrary
    config: CrusadeConfig
    tracer: Tracer
    engine: IncrementalEngine
    policy: SynthesisPolicy
    #: Wall-clock origin for the result's ``cpu_seconds``.
    started: float

    # -- donated inputs (may be supplied by the caller) ----------------
    #: CRUSADE-FT substitutes its fault-tolerance-level clustering.
    clustering: Optional[ClusteringResult] = None
    #: A previously synthesized reconfiguration-free result (route b's
    #: merge seed); computed internally when absent.
    baseline: Optional[CoSynthesisResult] = None

    # -- preprocess stage ----------------------------------------------
    warnings: List[str] = field(default_factory=list)
    assoc: Optional[AssociationArray] = None
    pessimistic: Optional[PriorityContext] = None
    compat: Optional[CompatibilityAnalysis] = None

    # -- allocation stage ----------------------------------------------
    arch: Optional[Architecture] = None
    priorities: Optional[Dict[str, Dict[str, float]]] = None
    fast: bool = False
    allocation_feasible: bool = True
    #: Whether ``priorities`` already reflect a partial allocation
    #: (pre-allocation pessimistic levels price edges differently).
    allocation_aware: bool = False

    # -- full check / repair / merge / interface stages ----------------
    full: Optional[EvalResult] = None
    best: Optional[EvalResult] = None
    interface: Optional[InterfacePlan] = None
    merge_stats: Dict[str, int] = field(default_factory=dict)

    # -- finalize stage -------------------------------------------------
    result: Optional[CoSynthesisResult] = None

    @classmethod
    def begin(
        cls,
        spec: SystemSpec,
        library: Optional[ResourceLibrary] = None,
        config: Optional[CrusadeConfig] = None,
        clustering: Optional[ClusteringResult] = None,
        baseline: Optional[CoSynthesisResult] = None,
        tracer: Optional[Tracer] = None,
        engine: Optional[IncrementalEngine] = None,
    ) -> "SynthesisContext":
        """Resolve defaults and open a context for one run.

        Mirrors the public ``crusade()`` signature: ``None`` arguments
        mean "use the default" (catalog library, default config, null
        tracer, a fresh engine, config-named policy).
        """
        started = time.perf_counter()
        if library is None:
            library = default_library()
        if config is None:
            config = CrusadeConfig()
        return cls(
            spec=spec,
            library=library,
            config=config,
            tracer=resolve_tracer(tracer),
            engine=engine if engine is not None else IncrementalEngine(),
            policy=resolve_policy(config.policy),
            started=started,
            clustering=clustering,
            baseline=baseline,
        )
