"""The on-disk synthesis store: versioned layout, atomic durable writes.

Layout under the cache directory::

    <cache_dir>/
      FORMAT                          "crusade-store/<version>\\n"
      results/<spec>-<catalog>-<config>.pkl
      fragments/<aa>/<fingerprint>-<validity>.pkl
      index/<name digest>.json        latest run per spec name

``results/`` is the full-result tier: one pickled
:class:`~repro.core.report.CoSynthesisResult` per (spec digest,
catalog digest, semantic config digest) triple.  ``fragments/`` is the
fragment tier: one pickled :class:`~repro.perf.engine.Fragment` per
(fingerprint digest, validity digest) pair, sharded by the first two
hex characters so no single directory grows unboundedly.  ``index/``
holds one canonical-JSON record per spec *name* -- the newest run's
digests -- which is what :mod:`repro.perf.warmstart` diffs a
resubmission against.

An entry holds only what its reader lacks.  A result entry leaves out
the result's ``spec`` and ``stats``: the key is the spec's digest, so
every reader already holds the spec, and :meth:`SynthesisStore.
load_result` binds the caller's own object; stats are the one
run-varying field.  Schedules and their timelines, in result and
fragment entries alike, pickle as rows of primitives and rebuild their
bisect lists on load (:class:`~repro.sched.scheduler.Schedule`,
:mod:`repro.perf.fasttimeline`).  Entries written before this layout
-- the spec inside, schedules as attribute dicts -- still load, under
the same keys and FORMAT stamp.

Every write goes through :func:`repro.io.campaign_json.write_atomic`:
a same-directory temp file (suffixed with the writer's pid so
concurrent campaign workers never share one), flushed and fsynced
(fragments skip the fsync), then ``os.replace``\\ d into place --
readers and racing writers only ever observe complete entries, and
the last writer of a key wins (all writers of one content-addressed
key carry identical bytes anyway).

Reads are *corrupt-tolerant*: a truncated, garbled or unpicklable
entry -- a crashed writer on a filesystem without atomic rename
semantics, a bit flip, a stale entry from an incompatible code
revision -- is treated as a miss, counted under ``perf.store.corrupt``
and best-effort deleted.  Only a FORMAT stamp from a *different store
version* raises (:class:`StoreFormatError`): silently mixing layouts
could serve wrong results, which a cache must never do.  A resolved
store is always both read and written; there is no read switch, and
a run that must not trust a store simply runs without one.
"""

from __future__ import annotations

import dataclasses
import pathlib
import pickle
from typing import Any, Dict, Optional, Union

from repro.io.campaign_json import dump_canonical, load_json, write_atomic
from repro.perf.store.digests import (
    STORE_SCHEMA_VERSION,
    catalog_digest,
    config_digest,
    default_catalog_digest,
    spec_digest,
    value_digest,
)

#: Name and expected content of the store's version stamp.
FORMAT_FILE = "FORMAT"
FORMAT_LINE = "crusade-store/%d\n" % STORE_SCHEMA_VERSION

#: Header tags pickled ahead of each payload; a tag/version mismatch
#: on load is treated as corruption (miss), not an error.
RESULT_TAG = "crusade-store-result"
FRAGMENT_TAG = "crusade-store-fragment"

#: Everything a persisted-entry load may raise that means "this entry
#: is unusable", exhaustively broad on purpose: unpickling executes
#: class constructors against bytes from an arbitrary past revision.
_CORRUPT_ERRORS = (
    OSError,
    EOFError,
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    IndexError,
    TypeError,
    ValueError,
    KeyError,
    MemoryError,
)


class StoreFormatError(RuntimeError):
    """The cache directory holds an incompatible store version."""


def resolve_store(config) -> Optional["SynthesisStore"]:
    """The store a ``crusade`` call should use, or ``None``.

    ``CrusadeConfig.cache_dir`` is the one source: no directory
    configured means no store -- synthesis untouched.
    """
    cache_dir = getattr(config, "cache_dir", None)
    return SynthesisStore(cache_dir) if cache_dir else None


def join_result_key(spec: str, catalog: str, config: str) -> str:
    """The full-result tier key from its three content digests.

    The one owner of the key format: ``crusade()`` (through
    :meth:`SynthesisStore.result_key`) and the service's exact-hit
    probe both call it, so a store either of them filled answers the
    other.
    """
    return "%s-%s-%s" % (spec, catalog, config)


def _incr(tracer, name: str, n: int = 1) -> None:
    """Count on a tracer that may be absent."""
    if tracer is not None:
        tracer.incr(name, n)


class SynthesisStore:
    """One cache directory holding both persistent tiers.

    Instances are cheap (they hold paths, not state) and safe to share
    across threads and processes: all mutation goes through atomic
    replace, all reads tolerate losing a race.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        """Open (creating if needed) the store at ``root``.

        Raises :class:`StoreFormatError` when ``root`` already stamps
        a different store version.
        """
        self.root = pathlib.Path(root)
        self.results_dir = self.root / "results"
        self.fragments_dir = self.root / "fragments"
        self.index_dir = self.root / "index"
        for directory in (
            self.root, self.results_dir, self.fragments_dir, self.index_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        self._claim_format()

    def _claim_format(self) -> None:
        """Stamp a fresh directory; verify an existing stamp."""
        stamp = self.root / FORMAT_FILE
        try:
            existing = stamp.read_text()
        except OSError:
            write_atomic(stamp, FORMAT_LINE.encode("ascii"))
            return
        if existing != FORMAT_LINE:
            raise StoreFormatError(
                "%s: incompatible store format %r (this build writes %r)"
                % (self.root, existing.strip(), FORMAT_LINE.strip())
            )

    # ------------------------------------------------------------------
    # pickled entries
    # ------------------------------------------------------------------
    def _dump(self, path: pathlib.Path, tag: str, payload: Any,
              durable: bool = True) -> None:
        """Pickle ``payload`` under a (tag, version) header, atomically."""
        data = pickle.dumps(
            (tag, STORE_SCHEMA_VERSION, payload), protocol=pickle.HIGHEST_PROTOCOL
        )
        write_atomic(path, data, durable=durable)

    def _load(self, path: pathlib.Path, tag: str, tracer=None) -> Optional[Any]:
        """Unpickle an entry; any unusable entry is a counted miss."""
        try:
            with open(path, "rb") as fh:
                header = pickle.load(fh)
        except FileNotFoundError:
            return None
        except _CORRUPT_ERRORS:
            self._drop_corrupt(path, tracer)
            return None
        if (
            not isinstance(header, tuple)
            or len(header) != 3
            or header[0] != tag
            or header[1] != STORE_SCHEMA_VERSION
        ):
            self._drop_corrupt(path, tracer)
            return None
        return header[2]

    def _drop_corrupt(self, path: pathlib.Path, tracer) -> None:
        """Count and best-effort delete an unusable entry."""
        _incr(tracer, "perf.store.corrupt")
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # full-result tier
    # ------------------------------------------------------------------
    def result_key(self, spec, library, config) -> str:
        """The full-result tier key of one synthesis request
        (``library`` None: the default catalog)."""
        catalog = (
            default_catalog_digest() if library is None
            else catalog_digest(library)
        )
        return join_result_key(
            spec_digest(spec), catalog, config_digest(config),
        )

    def _result_path(self, key: str) -> pathlib.Path:
        return self.results_dir / (key + ".pkl")

    def load_result(self, key: str, tracer=None, spec=None):
        """The cached result for ``key``, or ``None``.

        ``spec`` is the specification whose digest formed ``key``; the
        result is returned bound to it, the caller's own object, as a
        cold run's is.  An entry written with its spec inside gets the
        caller's spec too.
        """
        result = self._load(self._result_path(key), RESULT_TAG, tracer)
        if spec is not None and result is not None:
            result.spec = spec
        return result

    def save_result(self, key: str, result, tracer=None) -> None:
        """Persist a finished run's result under ``key``, without its
        ``spec`` (the key names it) and its ``stats`` (run-varying)."""
        if dataclasses.is_dataclass(result):
            result = dataclasses.replace(result, spec=None, stats=None)
        self._dump(self._result_path(key), RESULT_TAG, result)
        _incr(tracer, "perf.store.results_saved")

    # ------------------------------------------------------------------
    # fragment tier
    # ------------------------------------------------------------------
    def _fragment_path(self, fp_digest: str, validity: str) -> pathlib.Path:
        shard = self.fragments_dir / fp_digest[:2]
        return shard / ("%s-%s.pkl" % (fp_digest, validity))

    def load_fragment(self, fp_digest: str, validity: str, tracer=None):
        """The cached fragment at (fingerprint, validity), or ``None``."""
        return self._load(
            self._fragment_path(fp_digest, validity), FRAGMENT_TAG, tracer
        )

    def save_fragment(self, fp_digest: str, validity: str, fragment,
                      tracer=None) -> None:
        """Persist one freshly built schedule fragment.

        Non-durable (no fsync: fragment writes are frequent enough that
        per-write fsync latency would erase the warm-start win, and a
        crash-truncated entry is exactly what the corrupt-tolerant read
        path absorbs) and skipped entirely when the entry already
        exists: the key is content-addressed, so any existing entry
        already carries these bytes (an LRU-evicted-and-rebuilt
        fragment, or a racing campaign worker that got there first).
        """
        path = self._fragment_path(fp_digest, validity)
        if path.exists():
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._dump(path, FRAGMENT_TAG, fragment, durable=False)
        except (pickle.PicklingError, TypeError, AttributeError):
            # An unpicklable fragment (exotic timeline state) is a
            # skipped optimization, never an error.
            _incr(tracer, "perf.store.fragments_unpicklable")
            return
        _incr(tracer, "perf.store.fragments_saved")

    # ------------------------------------------------------------------
    # per-spec-name index (what warm-start diffs against)
    # ------------------------------------------------------------------
    def _index_path(self, spec_name: str) -> pathlib.Path:
        return self.index_dir / (value_digest(("index", spec_name)) + ".json")

    def load_index(self, spec_name: str, tracer=None) -> Optional[Dict[str, Any]]:
        """The newest run record for ``spec_name``, or ``None``."""
        path = self._index_path(spec_name)
        try:
            record = load_json(path)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._drop_corrupt(path, tracer)
            return None
        if not isinstance(record, dict) or record.get("version") != STORE_SCHEMA_VERSION:
            self._drop_corrupt(path, tracer)
            return None
        return record

    def save_index(self, spec_name: str, record: Dict[str, Any]) -> None:
        """Atomically record the newest run's digests for a spec name
        (canonical JSON)."""
        payload = dict(record)
        payload["version"] = STORE_SCHEMA_VERSION
        payload["spec"] = spec_name
        dump_canonical(payload, self._index_path(spec_name))
