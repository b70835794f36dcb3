"""Differential identity suite for warm-start synthesis.

The store's contract, in the style of the scheduler oracle
(``tests/sched/oracle.py``): a warm-started run must be *byte-identical*
to a cold run of the same request -- same architecture, same schedule,
same verdicts -- under :func:`repro.io.result_json.canonical_result_json`
(which strips only wall-clock time and the stats block, the two
legitimately run-varying fields).  Every scenario here runs the cold
oracle and the warm candidate and compares canonical bytes:

* exact resubmission (full-result tier hit),
* resubmission with one tweaked deadline (fragment-tier warm start),
* a store with every entry corrupted, on a generated spec and on a
  paper example,
* nested reconfiguration runs sharing the parent engine's binding.
"""

from __future__ import annotations

import pytest

from repro.bench.examples import build_example
from repro.core.config import CrusadeConfig
from repro.core.crusade import crusade
from repro.graph.generator import GeneratorConfig, generate_spec
from repro.io.result_json import canonical_result_json
from repro.obs import Tracer
from repro.perf.store import SynthesisStore
from repro.perf.warmstart import diff_against_prior, tweak_deadline
from repro.resources.catalog import default_library


def _spec(seed: int = 23, n_graphs: int = 3, tasks_per_graph: int = 6):
    return generate_spec(
        GeneratorConfig(
            seed=seed, n_graphs=n_graphs, tasks_per_graph=tasks_per_graph
        )
    )


def _cold(spec, **config_kwargs):
    """The oracle: a storeless run of the same request."""
    return crusade(spec, config=CrusadeConfig(**config_kwargs))


# ----------------------------------------------------------------------
# full-result tier
# ----------------------------------------------------------------------
class TestExactHit:
    """Identical resubmission returns the cached result, identically."""

    def test_hit_is_identical_and_counted(self, tmp_path):
        spec = _spec()
        cold = _cold(spec)
        config = CrusadeConfig(cache_dir=str(tmp_path))

        tracer = Tracer()
        warming = crusade(spec, config=config, tracer=tracer)
        assert tracer.counters.get("perf.store.hit") == 0
        assert tracer.counters.get("perf.store.miss") == 1
        assert tracer.counters.get("perf.store.results_saved") == 1
        assert canonical_result_json(warming) == canonical_result_json(cold)

        tracer = Tracer()
        hit = crusade(spec, config=config, tracer=tracer)
        assert tracer.counters.get("perf.store.hit") == 1
        assert canonical_result_json(hit) == canonical_result_json(cold)

    def test_hit_carries_fresh_wall_time_and_stats(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        crusade(spec, config=config)

        tracer = Tracer()
        hit = crusade(spec, config=config, tracer=tracer)
        # The cached result must not replay the warming run's timing
        # or stats: cpu_seconds is the hit's own latency and the stats
        # block reflects this (trivial) run.
        assert hit.cpu_seconds < 1.0
        assert hit.stats is not None
        assert hit.stats.counters.get("perf.store.hit") == 1
        # An untraced hit carries no stale stats either.
        untraced = crusade(spec, config=config)
        assert untraced.stats is None

    def test_semantic_config_change_misses(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        crusade(spec, config=config)
        tracer = Tracer()
        crusade(
            spec,
            config=CrusadeConfig(
                cache_dir=str(tmp_path), reconfiguration=False
            ),
            tracer=tracer,
        )
        assert tracer.counters.get("perf.store.hit") == 0
        assert tracer.counters.get("perf.store.miss") == 1

    def test_donated_inputs_bypass_result_tier(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        first = crusade(spec, config=config)
        tracer = Tracer()
        donated = crusade(
            spec, config=config, clustering=first.clustering, tracer=tracer
        )
        # Neither a hit nor a miss: the tier never engaged.
        assert tracer.counters.get("perf.store.hit") == 0
        assert tracer.counters.get("perf.store.miss") == 0
        assert canonical_result_json(donated) == canonical_result_json(first)


# ----------------------------------------------------------------------
# fragment tier: warm start after a spec change
# ----------------------------------------------------------------------
class TestWarmStart:
    """A tweaked resubmission reuses fragments, byte-identically."""

    def test_tweaked_deadline_warm_equals_cold(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        crusade(spec, config=config)  # populate

        tweaked = tweak_deadline(spec)
        cold = _cold(tweaked)
        tracer = Tracer()
        warm = crusade(tweaked, config=config, tracer=tracer)
        assert canonical_result_json(warm) == canonical_result_json(cold)
        assert tracer.counters.get("perf.store.miss") == 1  # not an exact hit
        assert tracer.counters.get("perf.store.graphs_unchanged") >= 1
        assert tracer.counters.get("perf.store.graphs_changed") == 1

    def test_fragments_are_reused_across_runs(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        first = crusade(spec, config=config)

        # Donating the clustering bypasses the full-result tier, so the
        # engine actually replays the decisions -- and must pull its
        # fragments from disk instead of rebuilding them.
        tracer = Tracer()
        replay = crusade(
            spec, config=config, clustering=first.clustering, tracer=tracer
        )
        assert tracer.counters.get("perf.store.fragments_preloaded") > 0
        assert canonical_result_json(replay) == canonical_result_json(first)
        # Disk hits surface in the engine gauges too.
        assert replay.stats.counters.get("perf.cache.disk_hits") == \
            tracer.counters.get("perf.store.fragments_preloaded")

    def test_disk_hits_never_count_as_scheduler_misses(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        first = crusade(spec, config=config)
        tracer = Tracer()
        crusade(
            spec, config=config, clustering=first.clustering, tracer=tracer
        )
        # The documented invariant survives the store: every scheduler
        # run builds exactly one fragment -- disk hits are hits.
        assert tracer.counters.get("sched.runs") == \
            tracer.counters.get("perf.schedule.misses")


# ----------------------------------------------------------------------
# fault tolerance end-to-end
# ----------------------------------------------------------------------
class TestCorruptStore:
    """A vandalized store degrades to cold-run behavior, identically."""

    @pytest.mark.parametrize("example", [
        pytest.param(None, id="generated"),
        pytest.param("A1TR", id="A1TR@0.05"),
    ])
    def test_all_entries_corrupted_still_identical(self, tmp_path, example):
        """Fill a store, overwrite every result, fragment and index
        entry with garbage, then resubmit: identical to a cold run, and
        the write-through heals the store so the next resubmission
        exact-hits.  The paper example resubmits with one deadline
        tweaked, so its vandalized fragments are probed as well."""
        if example is None:
            spec = resubmitted = _spec()
        else:
            spec = build_example(example, scale=0.05)
            resubmitted = tweak_deadline(spec)
        config = CrusadeConfig(cache_dir=str(tmp_path))
        crusade(spec, config=config)

        for tier in ("results", "fragments", "index"):
            entries = [p for p in (tmp_path / tier).rglob("*") if p.is_file()]
            assert entries, tier
            for path in entries:
                path.write_bytes(b"\x80\x04 vandalized")

        tracer = Tracer()
        result = crusade(resubmitted, config=config, tracer=tracer)
        assert tracer.counters.get("perf.store.corrupt") >= 1
        assert tracer.counters.get("perf.store.hit") == 0
        assert canonical_result_json(result) == canonical_result_json(
            _cold(resubmitted)
        )
        # The rerun healed the store: the next resubmission hits.
        tracer = Tracer()
        crusade(resubmitted, config=config, tracer=tracer)
        assert tracer.counters.get("perf.store.hit") == 1


# ----------------------------------------------------------------------
# the spec diff
# ----------------------------------------------------------------------
class TestSpecDiff:
    """``diff_against_prior`` classifies a resubmission correctly."""

    def test_no_prior(self, tmp_path):
        store = SynthesisStore(tmp_path)
        diff = diff_against_prior(
            store, _spec(), default_library(), CrusadeConfig()
        )
        assert not diff.prior_found
        assert not diff.exact

    def test_exact_resubmission(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        crusade(spec, config=config)
        diff = diff_against_prior(
            SynthesisStore(tmp_path), spec, default_library(), config
        )
        assert diff.prior_found
        assert diff.exact
        assert diff.changed == []
        assert len(diff.unchanged) == len(spec.graphs)

    def test_tweaked_resubmission(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        crusade(spec, config=config)
        diff = diff_against_prior(
            SynthesisStore(tmp_path), tweak_deadline(spec),
            default_library(), config,
        )
        assert diff.prior_found
        assert not diff.exact
        assert len(diff.changed) == 1
        assert not diff.catalog_changed
        assert not diff.config_changed

    def test_config_change_flagged(self, tmp_path):
        spec = _spec()
        config = CrusadeConfig(cache_dir=str(tmp_path))
        crusade(spec, config=config)
        diff = diff_against_prior(
            SynthesisStore(tmp_path), spec, default_library(),
            CrusadeConfig(max_explicit_copies=2),
        )
        assert diff.prior_found
        assert diff.config_changed
        assert not diff.exact

    def test_tweak_deadline_round_trips(self):
        spec = _spec()
        tweaked = tweak_deadline(spec, factor=1.25)
        assert tweaked is not spec
        assert tweaked.name == spec.name
        assert len(tweaked.graphs) == len(spec.graphs)
        # Exactly one deadline differs, by the requested factor.
        diffs = [
            (name, spec.graphs[name].deadline, tweaked.graphs[name].deadline)
            for name in spec.graphs
            if spec.graphs[name].deadline != tweaked.graphs[name].deadline
        ]
        assert len(diffs) == 1
        _, before, after = diffs[0]
        assert after == pytest.approx(before * 1.25)


# ----------------------------------------------------------------------
# reconfiguration: the nested baseline shares the binding
# ----------------------------------------------------------------------
class TestReconfiguration:
    """Warm start stays identical through the mode-merge routes."""

    def test_reconfig_warm_equals_cold(self, tmp_path):
        spec = _spec(seed=31)
        config = CrusadeConfig(cache_dir=str(tmp_path))
        crusade(spec, config=config)

        tweaked = tweak_deadline(spec, factor=0.97)
        cold = _cold(tweaked)
        warm = crusade(tweaked, config=config)
        assert canonical_result_json(warm) == canonical_result_json(cold)
