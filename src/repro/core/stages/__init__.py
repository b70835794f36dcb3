"""The CRUSADE synthesis pipeline (Figure 5).

:func:`~repro.core.stages.pipeline.synthesize` runs the steps in
order over a shared :class:`~repro.core.stages.context.
SynthesisContext`, each gate written where its step runs; each step
is a plain function over the context.  ``crusade()`` calls it and
stays byte-for-byte result-identical to the former monolithic driver
(pinned by the golden-result fixtures under ``tests/core/golden/``).

The steps run the paper's fixed rules; the one choice a caller makes
is the cluster allocation order, named by ``CrusadeConfig.policy``
(:data:`~repro.cluster.clustering.CLUSTER_ORDERS`).
"""

from repro.core.stages.context import SynthesisContext
from repro.core.stages.pipeline import synthesize
from repro.core.stages.allocation import CandidateSelection, allocate
from repro.core.stages.repair import repair_deadlines, repair_pass
from repro.core.stages.modemerge import merge_modes

__all__ = [
    "SynthesisContext",
    "synthesize",
    "allocate",
    "CandidateSelection",
    "repair_deadlines",
    "repair_pass",
    "merge_modes",
]
