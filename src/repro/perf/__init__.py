"""Performance layer for the synthesis inner loop.

Cooperating pieces, all observable through ``perf.*`` / ``prune.*``
tracer counters and each individually killable
(``CrusadeConfig.incremental=False`` / ``REPRO_NO_INCREMENTAL=1``,
``CrusadeConfig.prune=False`` / ``REPRO_NO_PRUNE=1``):

* :mod:`repro.perf.fingerprint` -- partitions the specification's
  graphs into resource-coupled components and fingerprints each
  component's scheduling inputs by value;
* :mod:`repro.perf.engine` -- the per-component schedule/verdict cache
  (:class:`IncrementalEngine`) threaded through
  ``evaluate_architecture``;
* :mod:`repro.perf.cow` -- copy-on-write application of allocation
  options (undo journals instead of architecture clones);
* :mod:`repro.perf.prune` -- admissible candidate pruning: per-
  candidate finish-time/demand lower bounds cut provably infeasible
  candidates before the scheduler runs (pure dominance pruning);
* :mod:`repro.perf.store` / :mod:`repro.perf.warmstart` -- the
  persistent content-addressed synthesis store (full-result tier +
  cross-run fragment tier under ``CrusadeConfig.cache_dir``) and the
  warm-start path that diffs a resubmitted spec against the cached
  prior run and rebinds still-valid schedule fragments; reads killed
  by ``warm_start=False`` / ``REPRO_NO_WARM_START=1``;
* :mod:`repro.perf.fasttimeline` / :mod:`repro.perf.treetimeline` --
  the fast implementations of the :class:`repro.sched.timeline`
  abstract timelines: bisect-indexed flat lists, and the blocked
  index for long fragmented timelines, selected per run by
  ``CrusadeConfig.timeline`` (``REPRO_TIMELINE`` overrides) and held
  byte-identical by the differential oracle in ``tests/sched``.

All paths are byte-identical to the from-scratch pipeline; the
property suites in ``tests/perf`` assert it.
"""

from repro.perf.cow import AppliedOption, undo_journal
from repro.perf.engine import (
    IncrementalEngine,
    incremental_disabled_by_env,
    resolve_engine,
)
from repro.perf.fingerprint import component_fingerprint, partition_components
from repro.perf.prune import (
    CandidatePruner,
    PruneVerdict,
    RepairBound,
    prune_disabled_by_env,
    pruning_active,
)
from repro.perf.treetimeline import (
    TreePpeModeTimeline,
    TreeTimeline,
    resolve_timeline,
)

__all__ = [
    "AppliedOption",
    "CandidatePruner",
    "IncrementalEngine",
    "PruneVerdict",
    "RepairBound",
    "component_fingerprint",
    "incremental_disabled_by_env",
    "partition_components",
    "prune_disabled_by_env",
    "pruning_active",
    "resolve_engine",
    "resolve_timeline",
    "TreePpeModeTimeline",
    "TreeTimeline",
    "undo_journal",
]
