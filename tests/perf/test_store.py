"""The persistent store: encoding, digests, disk tiers, fault tolerance.

Covers the store's own contracts in isolation -- canonical encoding
determinism and collision-freedom, digest sensitivity to exactly the
inputs that matter, pickle round-trips of both tiers, version-stamp
enforcement, corrupt-entry tolerance, and the two-process same-key
write race the shared campaign store must survive.  The end-to-end
warm-vs-cold identity contract lives in ``test_warmstart.py``.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import pickle

import pytest

from repro.core.config import CrusadeConfig
from repro.graph.generator import GeneratorConfig, generate_spec
from repro.perf.store import (
    SynthesisStore,
    StoreFormatError,
    canonical_encode,
    catalog_digest,
    config_digest,
    fingerprint_digest,
    graph_digests,
    resolve_store,
    spec_digest,
)
from repro.perf.store.disk import FORMAT_FILE
from repro.resources.catalog import default_library


def _spec(seed: int = 7):
    return generate_spec(
        GeneratorConfig(seed=seed, n_graphs=2, tasks_per_graph=5)
    )


# ----------------------------------------------------------------------
# canonical encoding
# ----------------------------------------------------------------------
class TestCanonicalEncode:
    """The tagged binary encoding under the digests."""

    def test_deterministic(self):
        value = (("g0", 2, ((0, 0.0), (1, 0.5)), (1.0, 2.5), None), True)
        assert canonical_encode(value) == canonical_encode(value)

    def test_distinguishes_types(self):
        # 1 vs 1.0 vs "1" vs True must not collide.
        encodings = {
            canonical_encode(1),
            canonical_encode(1.0),
            canonical_encode("1"),
            canonical_encode(True),
        }
        assert len(encodings) == 4

    def test_length_prefix_prevents_boundary_collisions(self):
        assert canonical_encode(("ab", "c")) != canonical_encode(("a", "bc"))
        assert canonical_encode((("a",), "b")) != canonical_encode((("a", "b"),))

    def test_negative_zero_and_ints(self):
        assert canonical_encode(0.0) != canonical_encode(-0.0)
        assert canonical_encode(10) != canonical_encode(1)
        assert canonical_encode(-1) != canonical_encode(1)

    def test_rejects_unencodable(self):
        with pytest.raises(TypeError):
            canonical_encode({"a": 1})
        with pytest.raises(TypeError):
            canonical_encode(object())


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
class TestDigests:
    """Content digests change exactly when content changes."""

    def test_spec_digest_stable_across_round_trip(self):
        from repro.io.spec_json import load_spec, spec_to_dict
        import json

        spec = _spec()
        clone = load_spec(json.dumps(spec_to_dict(spec)))
        assert spec_digest(spec) == spec_digest(clone)

    def test_graph_digest_sees_deadline_change(self):
        from repro.perf.warmstart import tweak_deadline

        spec = _spec()
        tweaked = tweak_deadline(spec)
        before = graph_digests(spec)
        after = graph_digests(tweaked)
        differing = [n for n in before if before[n] != after[n]]
        assert len(differing) == 1

    def test_config_digest_ignores_identity_neutral_knobs(self):
        base = CrusadeConfig()
        assert config_digest(CrusadeConfig(cache_dir="/tmp/x")) == (
            config_digest(base)
        )

    def test_store_keys_are_pinned(self, tmp_path):
        """Existing stores stay addressable: config fields that were
        identity-neutral can be removed without moving any key, so
        these values must never change unless STORE_SCHEMA_VERSION
        does."""
        assert config_digest(CrusadeConfig()) == (
            "d343d88a5ab5d42e957c17a2dcf6e8de"
        )
        key = SynthesisStore(tmp_path).result_key(
            _spec(), default_library(), CrusadeConfig()
        )
        assert key == (
            "76269b3de598e0e578f393291481289d-"
            "42103f95f79f400c4190d96f4bdce010-"
            "d343d88a5ab5d42e957c17a2dcf6e8de"
        )
        # No library named: the memoized default catalog digest keys
        # the same entry.
        assert SynthesisStore(tmp_path).result_key(
            _spec(), None, CrusadeConfig()
        ) == key

    def test_exact_hit_builds_no_library(self, tmp_path, monkeypatch):
        """A resubmission that names no library is answered from the
        store without building or digesting the default catalog."""
        from repro.core.crusade import crusade
        from repro.core.stages import context as context_module
        from repro.obs.trace import Tracer
        from repro.perf.store import digests

        config = CrusadeConfig(cache_dir=str(tmp_path))
        spec = _spec()
        first = crusade(spec, config=config)

        def no_library():
            raise AssertionError("an exact hit built a library")

        def no_catalog_digest(library):
            raise AssertionError("an exact hit digested a catalog")

        digests.default_catalog_digest()  # the process memo is warm
        monkeypatch.setattr(context_module, "default_library", no_library)
        monkeypatch.setattr(digests, "catalog_digest", no_catalog_digest)
        tracer = Tracer()
        hit = crusade(spec, config=config, tracer=tracer)
        assert tracer.counters.as_dict()["perf.store.hit"] == 1
        assert hit.cost == first.cost

    def test_config_digest_sees_semantic_knobs(self):
        base = config_digest(CrusadeConfig())
        assert config_digest(CrusadeConfig(reconfiguration=False)) != base
        assert config_digest(CrusadeConfig(max_explicit_copies=2)) != base
        assert config_digest(CrusadeConfig(policy="largest-first")) != base

    def test_catalog_digest_sees_library_content(self):
        from repro.resources.library import ResourceLibrary
        from repro.resources.pe import ProcessorType

        library = default_library()
        base = catalog_digest(library)
        assert base == catalog_digest(default_library())
        grown = ResourceLibrary(
            pe_types=list(library.pe_types.values())
            + [ProcessorType(name="EXTRA", cost=1.0)],
            link_types=list(library.link_types.values()),
        )
        assert catalog_digest(grown) != base

    def test_fingerprint_digest_is_order_sensitive(self):
        assert fingerprint_digest((("a", 1),)) != fingerprint_digest((("a", 2),))


# ----------------------------------------------------------------------
# disk tiers
# ----------------------------------------------------------------------
class TestDisk:
    """Round-trips, versioning and corruption tolerance."""

    def test_result_round_trip(self, tmp_path):
        from repro.core.crusade import crusade

        spec = _spec()
        result = crusade(spec, config=CrusadeConfig())
        store = SynthesisStore(tmp_path)
        key = store.result_key(spec, default_library(), CrusadeConfig())
        assert store.load_result(key, spec=spec) is None
        store.save_result(key, result)
        loaded = store.load_result(key, spec=spec)
        from repro.io.result_json import canonical_result_json

        assert loaded.spec is spec
        assert canonical_result_json(loaded) == canonical_result_json(result)

    def test_fragment_round_trip(self, tmp_path):
        from repro.perf.engine import Fragment
        from repro.sched.scheduler import Schedule

        store = SynthesisStore(tmp_path)
        fragment = Fragment(Schedule(), {"g0": {("g0", 0, "t"): 0.25}},
                            {"pe0": 1.5}, 0)
        assert store.load_fragment("ab" * 16, "cd" * 16) is None
        store.save_fragment("ab" * 16, "cd" * 16, fragment)
        loaded = store.load_fragment("ab" * 16, "cd" * 16)
        assert loaded.lateness == fragment.lateness
        assert loaded.demand == fragment.demand
        assert loaded.misses == 0

    def test_format_stamp_enforced(self, tmp_path):
        SynthesisStore(tmp_path)  # stamps
        (tmp_path / FORMAT_FILE).write_text("crusade-store/999\n")
        with pytest.raises(StoreFormatError):
            SynthesisStore(tmp_path)

    def test_reopen_same_version_ok(self, tmp_path):
        SynthesisStore(tmp_path)
        SynthesisStore(tmp_path)  # idempotent

    @pytest.mark.parametrize("garbage", [
        b"", b"not a pickle", b"\x80\x04garbage",
        pickle.dumps(("wrong-tag", 1, None)),
        pickle.dumps(("crusade-store-fragment", 999, None)),
        pickle.dumps("not-a-tuple"),
    ])
    def test_corrupt_fragment_is_a_counted_miss(self, tmp_path, garbage):
        from repro.obs import Tracer

        store = SynthesisStore(tmp_path)
        path = store._fragment_path("ab" * 16, "cd" * 16)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(garbage)
        tracer = Tracer()
        assert store.load_fragment("ab" * 16, "cd" * 16, tracer) is None
        assert tracer.counters.get("perf.store.corrupt") == 1
        assert not path.exists()  # dropped

    def test_corrupt_index_is_a_miss(self, tmp_path):
        store = SynthesisStore(tmp_path)
        store.save_index("demo", {"graphs": {}})
        assert store.load_index("demo")["spec"] == "demo"
        store._index_path("demo").write_text("{broken")
        assert store.load_index("demo") is None

    def test_truncated_result_is_a_miss(self, tmp_path):
        store = SynthesisStore(tmp_path)
        store.save_result("k", {"payload": 1})
        path = store._result_path("k")
        path.write_bytes(path.read_bytes()[:10])
        assert store.load_result("k") is None

    def test_flat_tree_timeline_entry_loads_as_a_fast_timeline(self, tmp_path):
        """Entries written while ``TreeTimeline`` was the production
        class carry its unused blocked-index fields; they still load
        into a working timeline."""
        from repro.perf.treetimeline import TreeTimeline

        timeline = TreeTimeline()
        timeline.occupy(0.0, 1.0, ("a",))
        timeline.__dict__.update(
            convert_at=1024, _n=0, _bivs=[], _bsts=[], _bens=[],
            _last_start=[], _last_end=[],
        )
        store = SynthesisStore(tmp_path)
        store.save_result("k", {"timeline": timeline})
        loaded = store.load_result("k")["timeline"]
        assert loaded.intervals == timeline.intervals
        assert loaded.earliest_fit(0.5, 1.0) == 1.0

    def test_blocked_timeline_entry_is_a_counted_miss(self, tmp_path):
        """A timeline pickled in the deleted blocked layout would load
        as a wrong timeline; it must be dropped and resynthesized."""
        from repro.obs import Tracer
        from repro.perf.treetimeline import _BlockedTimeline

        store = SynthesisStore(tmp_path)
        store.save_result("k", {"timeline": _BlockedTimeline()})
        tracer = Tracer()
        assert store.load_result("k", tracer) is None
        assert tracer.counters.get("perf.store.corrupt") == 1
        assert not store._result_path("k").exists()


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
class TestResolution:
    """``CrusadeConfig.cache_dir`` is the one source of a store."""

    def test_no_cache_dir_means_no_store(self):
        assert resolve_store(CrusadeConfig()) is None

    def test_config_cache_dir_wins(self, tmp_path):
        store = resolve_store(CrusadeConfig(cache_dir=str(tmp_path / "a")))
        assert store is not None
        assert store.root == tmp_path / "a"

    def test_environment_names_no_store(self, tmp_path, monkeypatch):
        """A ``crusade()`` whose config names no store opens none, even
        with the retired ``REPRO_CACHE_DIR`` variable set."""
        from repro.core.crusade import crusade

        ambient = tmp_path / "ambient"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(ambient))

        def no_store(self, root):
            raise AssertionError("a store was opened at %s" % (root,))

        monkeypatch.setattr(SynthesisStore, "__init__", no_store)
        assert resolve_store(CrusadeConfig()) is None
        crusade(_spec())
        assert not ambient.exists()


# ----------------------------------------------------------------------
# concurrency: racing writers must never corrupt an entry
# ----------------------------------------------------------------------
def _race_writer(root: str, rounds: int, payload_size: int) -> None:
    """Hammer the same fragment and result keys with atomic writes."""
    store = SynthesisStore(root)
    payload = {"blob": "x" * payload_size}
    for i in range(rounds):
        store.save_fragment("ab" * 16, "cd" * 16, payload)
        store.save_result("race-key", payload)
        store.save_index("race-spec", {"graphs": {}, "round": i})


@pytest.mark.slow
def test_two_process_same_key_race(tmp_path):
    """Two processes writing the same keys leave only loadable entries."""
    workers = [
        multiprocessing.Process(
            target=_race_writer, args=(str(tmp_path), 60, 4096)
        )
        for _ in range(2)
    ]
    store = SynthesisStore(tmp_path)
    for worker in workers:
        worker.start()
    # Read concurrently with the writers: any non-None load must be
    # complete and well-formed (atomic replace means no torn reads).
    observed = 0
    while any(w.is_alive() for w in workers):
        fragment = store.load_fragment("ab" * 16, "cd" * 16)
        if fragment is not None:
            assert fragment["blob"] == "x" * 4096
            observed += 1
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0
    # After the dust settles everything loads cleanly.
    assert store.load_fragment("ab" * 16, "cd" * 16)["blob"] == "x" * 4096
    assert store.load_result("race-key")["blob"] == "x" * 4096
    assert store.load_index("race-spec")["spec"] == "race-spec"
    # No temp-file litter survived the race.
    litter = [
        p for p in pathlib.Path(tmp_path).rglob("*.tmp.*")
    ]
    assert litter == []
