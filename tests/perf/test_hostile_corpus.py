"""Hostile-input corpus for the dominance identity and the validators.

Generated workloads at the edge of feasibility: full utilization, 40 %
deadline slack, bursty periods drawn from 25-400 us, and two graph
shapes -- deep chains (``avg_parallelism`` 1.0) and wide fan-out
(6.0).  For every spec the default synthesis, which runs the prune
floors and the bound aborts, must equal the exhaustive search
(:func:`tests.sched.reference_scheduler.exhaustive`, both cuts off)
byte for byte, and the independent schedule and architecture
validators must report nothing.  Across the corpus both cuts must
fire, so the identity is not vacuous.
"""

import functools

import pytest

from repro import (
    CrusadeConfig,
    GeneratorConfig,
    Tracer,
    crusade,
    generate_spec,
    validate_architecture,
    validate_schedule,
)
from repro.graph.association import AssociationArray
from repro.io.result_json import canonical_result_json
from repro.units import US
from tests.sched.reference_scheduler import exhaustive

CONFIG = CrusadeConfig(max_explicit_copies=2)
PERIODS = (25 * US, 50 * US, 100 * US, 200 * US, 400 * US)
SHAPES = {"chains": 1.0, "fan-out": 6.0}
SEEDS = range(5)
CASES = [
    pytest.param(shape, seed, id="%s-%d" % (shape, seed))
    for shape in SHAPES
    for seed in SEEDS
]


@functools.lru_cache(maxsize=None)
def synthesized(shape, seed):
    """The spec, its default and exhaustive results, and both runs'
    counters (each spec is synthesized once per session)."""
    spec = generate_spec(GeneratorConfig(
        seed=seed, n_graphs=3, tasks_per_graph=20, utilization=1.0,
        deadline_slack=0.4, avg_parallelism=SHAPES[shape], periods=PERIODS,
    ))
    tracer, full_tracer = Tracer(), Tracer()
    default = crusade(spec, config=CONFIG, tracer=tracer)
    with exhaustive():
        full = crusade(spec, config=CONFIG, tracer=full_tracer)
    return (spec, default, full, tracer.counters.as_dict(),
            full_tracer.counters.as_dict())


@pytest.mark.parametrize("shape, seed", CASES)
def test_default_search_equals_exhaustive(shape, seed):
    _, default, full, _, full_counters = synthesized(shape, seed)
    assert canonical_result_json(default) == canonical_result_json(full)
    assert full_counters.get("prune.cut", 0) == 0
    assert full_counters.get("sched.abort", 0) == 0


@pytest.mark.parametrize("shape, seed", CASES)
def test_validators_report_nothing(shape, seed):
    spec, default, _, _, _ = synthesized(shape, seed)
    assoc = AssociationArray(
        spec, max_explicit_copies=CONFIG.max_explicit_copies
    )
    schedule = validate_schedule(
        default.schedule, spec, assoc, default.clustering, default.arch
    )
    assert schedule.ok, schedule.violations[:3]
    arch = validate_architecture(
        default.arch, default.clustering, spec=spec,
        policy=CONFIG.delay_policy,
    )
    assert arch.ok, arch.violations[:3]


def test_both_cuts_fire_in_the_corpus():
    counters = [synthesized(shape, seed)[3]
                for shape in SHAPES for seed in SEEDS]
    assert any(c.get("prune.cut", 0) > 0 for c in counters)
    assert any(c.get("sched.abort", 0) > 0 for c in counters)
