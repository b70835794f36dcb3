"""The shared mutable state of one synthesis run.

:class:`SynthesisContext` is the single object the Figure 5 steps
read and write; it owns what the old monolithic driver threaded
through nested closures -- specification, library, configuration,
clustering, association array, the working architecture, priority
levels, tracer, incremental engine, compatibility analysis and
validation warnings -- plus the evolving verdicts (``full``,
``best``) and reconfiguration artifacts (``interface``,
``merge_stats``) the later steps produce.

Field ownership (who writes what):

==============  ===================================================
step            context fields written
==============  ===================================================
``preprocess``  ``warnings``, ``assoc``, ``pessimistic``, ``compat``
``clustering``  ``clustering`` (skipped when donated)
``allocation``  ``arch``, ``priorities``
``full_check``  ``full``, ``best``
``repair``      ``full``, ``best``, ``arch``, ``priorities``
``merge``       ``best``, ``arch``, ``interface``, ``merge_stats``,
                ``baseline``
``interface``   ``best``, ``interface``
==============  ===================================================

The unphased finalize step writes nothing: it packages ``best`` as
the :class:`~repro.core.report.CoSynthesisResult` that
:func:`~repro.core.stages.pipeline.synthesize` returns.
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

    Each step receives the context, mutates its slice of it, and
    leaves the rest alone; the module docstring lists which step owns
    which fields.
    """

    # -- inputs (fixed for the whole run) ------------------------------
    spec: SystemSpec
    library: ResourceLibrary
    config: CrusadeConfig
    tracer: Tracer
    engine: IncrementalEngine
    #: Wall-clock origin for the result's ``cpu_seconds``.
    started: float

    # -- donated inputs (may be supplied by the caller) ----------------
    #: CRUSADE-FT substitutes its fault-tolerance-level clustering.
    clustering: Optional[ClusteringResult] = None
    #: A previously synthesized reconfiguration-free result (route b's
    #: merge seed); computed internally when absent.
    baseline: Optional[CoSynthesisResult] = None

    # -- preprocess step -----------------------------------------------
    warnings: List[str] = field(default_factory=list)
    assoc: Optional[AssociationArray] = None
    #: The run's pre-allocation estimators.  Its ``tables`` are the
    #: run's graph tables, which clustering, the candidate pruner and
    #: every allocation-aware context the later steps build share.
    pessimistic: Optional[PriorityContext] = None
    compat: Optional[CompatibilityAnalysis] = None

    # -- allocation step -----------------------------------------------
    arch: Optional[Architecture] = None
    priorities: Optional[Dict[str, Dict[str, float]]] = None

    # -- full check / repair / merge / interface steps -----------------
    full: Optional[EvalResult] = None
    best: Optional[EvalResult] = None
    interface: Optional[InterfacePlan] = None
    merge_stats: Dict[str, int] = field(default_factory=dict)

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
        tracer, a fresh engine).
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
            started=started,
            clustering=clustering,
            baseline=baseline,
        )
