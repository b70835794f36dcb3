"""Performance layer for the synthesis inner loop.

Cooperating pieces, all observable through ``perf.*`` / ``prune.*``
tracer counters:

* :mod:`repro.perf.fingerprint` -- partitions the specification's
  graphs into resource-coupled components and fingerprints each
  component's scheduling inputs by value;
* :mod:`repro.perf.engine` -- the per-component schedule/verdict cache
  (:class:`IncrementalEngine`) every ``evaluate_architecture`` call
  schedules through;
* :mod:`repro.perf.fastsched` -- the scheduler's cross-run caches
  (plans, transfer times) and the trails its builds resume from;
* :mod:`repro.perf.cow` -- copy-on-write application of allocation
  options (undo journals instead of architecture clones);
* :mod:`repro.perf.prune` -- admissible candidate pruning: per-
  candidate finish-time/demand lower bounds cut provably infeasible
  candidates before the scheduler runs (pure dominance pruning, always
  on; the exhaustive search it must equal is a test oracle);
* :mod:`repro.perf.store` / :mod:`repro.perf.warmstart` -- the
  persistent content-addressed synthesis store (full-result tier +
  cross-run fragment tier under ``CrusadeConfig.cache_dir``) and the
  warm-start path that diffs a resubmitted spec against the cached
  prior run and rebinds still-valid schedule fragments;
* :mod:`repro.perf.fasttimeline` -- the production implementations
  of the :class:`repro.sched.timeline` abstract timelines:
  bisect-indexed flat lists, held byte-identical to the linear
  reference classes by the differential oracle in ``tests/sched``.

Results are byte-identical to the reference scheduler in
``tests/sched/reference_scheduler.py``; the property suites in
``tests/perf`` assert it.
"""

from repro.perf.cow import AppliedOption, undo_journal
from repro.perf.engine import IncrementalEngine
from repro.perf.fingerprint import component_fingerprint, partition_components
from repro.perf.prune import (
    CandidatePruner,
    PruneVerdict,
    RepairBound,
)

__all__ = [
    "AppliedOption",
    "CandidatePruner",
    "IncrementalEngine",
    "PruneVerdict",
    "RepairBound",
    "component_fingerprint",
    "partition_components",
    "undo_journal",
]
