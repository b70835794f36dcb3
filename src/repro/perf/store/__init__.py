"""The persistent, content-addressed synthesis store.

Cross-run warm starts: the perf engine is incremental *within* a run,
but production traffic is incremental *between* runs -- a user tweaks
one deadline or swaps one catalog part and resubmits.  This package
persists synthesis artifacts on disk under a cache directory
(``CrusadeConfig.cache_dir``, which ``--cache-dir`` sets) in two
content-addressed tiers:

* a **full-result tier** keyed on (spec digest, catalog digest,
  semantic config digest): an exact resubmission returns the cached
  :class:`~repro.core.report.CoSynthesisResult` in milliseconds;
* a **fragment tier** persisting the engine's per-component schedule
  fragments keyed on their value fingerprints
  (:mod:`repro.perf.fingerprint`), guarded by a validity digest over
  the member graphs' content, the catalog and the semantic config --
  a near-hit resubmission replays still-valid components and
  reschedules only what the edit invalidated.

Cooperating pieces:

* :mod:`repro.perf.store.encode` -- the canonical, process-portable
  binary encoding + SHA-256 digests everything is addressed by
  (independent of ``PYTHONHASHSEED``);
* :mod:`repro.perf.store.digests` -- content digests for specs, task
  graphs, resource catalogs, configurations and fingerprints;
* :mod:`repro.perf.store.disk` -- the versioned on-disk layout with
  atomic fsynced writes and corrupt-entry tolerance;
* :mod:`repro.perf.warmstart` -- spec diffing against the cached
  prior run and the engine/store binding.

Both tiers are byte-identity-preserving: a warm-started run produces
the same canonical result JSON as a cold run of the same inputs (the
differential suite in ``tests/perf/test_warmstart.py`` enforces it).
A configured store is always both read and written; a run that must
not trust a store simply runs without a cache directory.
"""

from repro.perf.store.digests import (
    STORE_SCHEMA_VERSION,
    catalog_digest,
    config_digest,
    fingerprint_digest,
    graph_digest,
    graph_digests,
    spec_digest,
    value_digest,
)
from repro.perf.store.disk import (
    StoreFormatError,
    SynthesisStore,
    join_result_key,
    resolve_store,
)
from repro.perf.store.encode import canonical_encode, encoded_digest

__all__ = [
    "STORE_SCHEMA_VERSION",
    "StoreFormatError",
    "SynthesisStore",
    "canonical_encode",
    "catalog_digest",
    "config_digest",
    "encoded_digest",
    "fingerprint_digest",
    "graph_digest",
    "graph_digests",
    "join_result_key",
    "resolve_store",
    "spec_digest",
    "value_digest",
]
