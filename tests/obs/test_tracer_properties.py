"""Property tests: tracing observes synthesis without perturbing it.

Three oracles, fuzzed over generated workloads:

1. **Timing** -- every phase total is non-negative and the exclusive
   phase totals sum to at most the run's wall time.
2. **Counter consistency** -- the merge loop's accepts plus all
   rejects equals its candidates; every allocation evaluation runs
   exactly one schedule; scheduled-task counters are populated.
3. **Determinism** -- an enabled tracer leaves the synthesis result
   byte-identical to a disabled one, and the counters themselves are
   reproducible run-to-run.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CrusadeConfig, GeneratorConfig, MemorySink, Tracer, crusade, generate_spec
from repro.io.result_json import result_to_dict

PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_spec(seed):
    return generate_spec(GeneratorConfig(
        seed=seed, n_graphs=2, tasks_per_graph=5, compat_group_size=2,
        utilization=0.2, hw_only_fraction=0.35, mixed_fraction=0.15,
    ))


def traced_run(seed, reconfig=True):
    sink = MemorySink()
    tracer = Tracer(sinks=[sink])
    config = CrusadeConfig(reconfiguration=reconfig, max_explicit_copies=2)
    result = crusade(make_spec(seed), config=config, tracer=tracer)
    return result, tracer, sink


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60), reconfig=st.booleans())
def test_phase_timers_bounded_by_wall_time(seed, reconfig):
    result, _, _ = traced_run(seed, reconfig)
    stats = result.stats
    assert stats is not None
    assert all(v >= 0.0 for v in stats.phase_seconds.values())
    assert stats.phase_total() <= stats.total_seconds
    # The pipeline always runs these phases.
    for phase in ("preprocess", "allocation", "full_check"):
        assert phase in stats.phase_seconds


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60))
def test_merge_counters_consistent(seed):
    result, _, sink = traced_run(seed, reconfig=True)
    stats = result.stats
    accepts = stats.counter("merge.accepts")
    rejects = stats.counter_total("merge.rejects.")
    assert accepts + rejects == stats.counter("merge.candidates")
    # Every accept/reject also emitted a structured event.
    assert len(sink.named("merge.accept")) == accepts
    assert len(sink.named("merge.reject")) == rejects


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60), reconfig=st.booleans())
def test_scheduler_and_allocation_counters_consistent(seed, reconfig):
    result, _, _ = traced_run(seed, reconfig)
    stats = result.stats
    # With the incremental engine, every scheduler run builds exactly
    # one cached fragment, and every evaluation is served from
    # fragments (hits + misses cover every component of every
    # evaluation -- at least one per evaluation).
    assert stats.counter("sched.runs") == stats.counter("perf.schedule.misses")
    assert stats.counter("perf.schedule.hits") + stats.counter(
        "perf.schedule.misses"
    ) >= stats.counter("alloc.evaluations")
    assert stats.counter("sched.runs") > 0
    assert stats.counter("sched.tasks.real") + stats.counter("sched.tasks.virtual") > 0
    # Each considered option either failed to apply, was judged
    # infeasible, or won its cluster -- so infeasible + failures can
    # never exceed the considered count.
    considered = stats.counter("alloc.options.considered")
    assert stats.counter("alloc.options.infeasible") + stats.counter(
        "alloc.options.apply_failed"
    ) <= considered
    # Reconfiguration runs allocate the cluster set again for the
    # single-mode baseline (the recursive crusade call shares the
    # tracer), so the counter is a whole multiple of the cluster count.
    n_clusters = len(result.clustering.clusters)
    counted = stats.counter("alloc.clusters")
    if reconfig:
        assert counted >= n_clusters
        assert counted % n_clusters == 0
    else:
        assert counted == n_clusters


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60), reconfig=st.booleans())
def test_enabled_tracer_never_changes_the_result(seed, reconfig):
    config = CrusadeConfig(reconfiguration=reconfig, max_explicit_copies=2)
    plain = result_to_dict(crusade(make_spec(seed), config=config))
    traced = result_to_dict(
        crusade(make_spec(seed), config=config, tracer=Tracer())
    )
    plain.pop("cpu_seconds")
    traced.pop("cpu_seconds")
    stats = traced.pop("stats")
    assert stats["counters"]
    assert "stats" not in plain  # untraced exports keep the old shape
    assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60))
def test_counters_are_deterministic(seed):
    a = traced_run(seed)[1].counters.as_dict()
    b = traced_run(seed)[1].counters.as_dict()
    assert a == b


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60), reconfig=st.booleans())
def test_from_scratch_schedules_once_per_evaluation(seed, reconfig):
    """The pre-engine invariant holds for the reference scheduler."""
    from tests.sched.reference_scheduler import ReferenceEngine

    tracer = Tracer()
    config = CrusadeConfig(reconfiguration=reconfig, max_explicit_copies=2)
    result = crusade(make_spec(seed), config=config, tracer=tracer,
                     engine=ReferenceEngine())
    stats = result.stats
    assert stats.counter("alloc.evaluations") == stats.counter("sched.runs")
    assert stats.counter("perf.schedule.hits") == 0
    assert stats.counter("perf.schedule.misses") == 0
