"""The staged CRUSADE synthesis pipeline.

The driver's former monolith is decomposed into first-class stage
objects over a shared :class:`~repro.core.stages.context.
SynthesisContext`; ``crusade()`` composes them via
:func:`~repro.core.stages.pipeline.synthesize` and stays byte-for-byte
result-identical to the pre-stage driver (pinned by the golden-result
fixtures under ``tests/core/golden/``).

The stages run the paper's fixed rules; the one choice a caller makes
is the cluster allocation order, named by ``CrusadeConfig.policy``
(:data:`~repro.cluster.clustering.CLUSTER_ORDERS`).
"""

from repro.core.stages.base import Stage, run_stages
from repro.core.stages.context import SynthesisContext
from repro.core.stages.pipeline import default_stages, synthesize
from repro.core.stages.preprocess import Preprocess
from repro.core.stages.clustering import Clustering
from repro.core.stages.allocation import Allocation, CandidateSelection
from repro.core.stages.fullcheck import FullCheck
from repro.core.stages.repair import Repair, repair_pass
from repro.core.stages.modemerge import ModeMerge
from repro.core.stages.interface import InterfaceSynthesis
from repro.core.stages.finalize import Finalize

__all__ = [
    "Stage",
    "run_stages",
    "SynthesisContext",
    "default_stages",
    "synthesize",
    "Preprocess",
    "Clustering",
    "Allocation",
    "CandidateSelection",
    "FullCheck",
    "Repair",
    "repair_pass",
    "ModeMerge",
    "InterfaceSynthesis",
    "Finalize",
]
