"""The incremental engine is an optimization, not a semantics change.

Property suite fuzzing generated workloads: the synthesized result --
architecture, schedule, deadline report, costs -- must be byte
identical whether candidates are evaluated through the incremental
engine or through the reference scheduler from scratch
(``tests/sched/reference_scheduler.py``); the decision counters
(which options were considered/rejected) must match exactly between
the two.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CrusadeConfig, GeneratorConfig, Tracer, crusade, generate_spec
from repro.io.result_json import result_to_dict
from tests.sched.reference_scheduler import ReferenceEngine

PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Counters that must not depend on the evaluation strategy: they
#: record the allocation loop's *decisions*, not its bookkeeping.
DECISION_COUNTERS = (
    "alloc.clusters",
    "alloc.clusters.fallback",
    "alloc.options.considered",
    "alloc.options.apply_failed",
    "alloc.options.infeasible",
    "alloc.evaluations",
    "repair.rounds",
    "repair.rehomings_tried",
    "repair.rehomings_kept",
    "merge.candidates",
    "merge.accepts",
)


def make_spec(seed):
    return generate_spec(GeneratorConfig(
        seed=seed, n_graphs=2, tasks_per_graph=5, compat_group_size=2,
        utilization=0.2, hw_only_fraction=0.35, mixed_fraction=0.15,
    ))


def canonical(seed, tracer=None, engine=None, **config_kw):
    config = CrusadeConfig(max_explicit_copies=2, **config_kw)
    result = crusade(make_spec(seed), config=config, tracer=tracer,
                     engine=engine)
    payload = result_to_dict(result)
    payload.pop("cpu_seconds", None)
    payload.pop("stats", None)
    return json.dumps(payload, sort_keys=True)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60), reconfig=st.booleans())
def test_incremental_equals_from_scratch(seed, reconfig):
    scratch = canonical(seed, reconfiguration=reconfig,
                        engine=ReferenceEngine())
    incremental = canonical(seed, reconfiguration=reconfig)
    assert scratch == incremental


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60))
def test_traced_incremental_equals_untraced(seed):
    untraced = canonical(seed)
    traced = canonical(seed, tracer=Tracer())
    assert untraced == traced


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60), reconfig=st.booleans())
def test_decision_counters_match_from_scratch(seed, reconfig):
    """Fragment caching and planned scheduling change *what is
    computed*, never *what is decided*: every option-level decision
    counter matches the reference scheduler's exactly."""

    def counters(engine):
        tracer = Tracer()
        config = CrusadeConfig(reconfiguration=reconfig, max_explicit_copies=2)
        result = crusade(make_spec(seed), config=config, tracer=tracer,
                         engine=engine)
        return result.stats

    scratch = counters(ReferenceEngine())
    incremental = counters(None)
    for name in DECISION_COUNTERS:
        assert scratch.counter(name) == incremental.counter(name), name
    # Every engine scheduler run is a fragment-cache miss (one run per
    # component, vs one per evaluation from scratch -- so the counts
    # are not comparable across modes, but this equality is exact).
    assert incremental.counter("sched.runs") == \
        incremental.counter("perf.schedule.misses")
    # COW bookkeeping balances: every apply is committed or reverted.
    applies = incremental.counter("perf.cow.applies")
    assert applies > 0
    assert applies == incremental.counter("perf.cow.commits") + \
        incremental.counter("perf.cow.reverts")


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=30))
def test_incremental_priorities_are_exact(seed):
    """Reused priority maps equal full recomputation: synthesis
    decisions (which depend on priority order) already pin this down,
    but the counters prove reuse actually happened."""
    tracer = Tracer()
    config = CrusadeConfig(max_explicit_copies=2)
    result = crusade(make_spec(seed), config=config, tracer=tracer)
    stats = result.stats
    recomputed = stats.counter("perf.priorities.recomputed")
    reused = stats.counter("perf.priorities.reused")
    assert recomputed > 0
    # Two graphs sharing nothing: most placements touch one graph only.
    assert recomputed + reused > 0
