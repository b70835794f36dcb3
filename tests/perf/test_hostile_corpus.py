"""Hostile-input corpus for the dominance identity and the validators.

Generated workloads at the edge of feasibility: full utilization, 40 %
deadline slack, bursty periods drawn from 25-400 us, and three
families -- deep chains (``avg_parallelism`` 1.0) and wide fan-out
(6.0), which load processors, and a PPE-heavy family that loads
programmable-device area: most tasks run in hardware only, none may
use an ASIC, and graphs come in compatibility groups, so devices carry
several modes and replicas and some mode fills its ERUF cap.  For
every spec the default synthesis, which runs the prune floors and the
bound aborts, must equal the exhaustive search
(:func:`tests.sched.reference_scheduler.exhaustive`, both cuts off)
byte for byte, and the independent schedule and architecture
validators must report nothing.  Across the corpus both cuts must
fire, so the identity is not vacuous.  Beyond the fixed seeds,
Hypothesis draws the family, a seed, the utilization (0.8-1.0) and
the deadline slack (0.2-0.6) and checks the same identity and
validators.  One PPE-heavy member is also synthesized with every
schedule build checked against a fresh build and every resume point
against the heap replay.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from repro.resources.pe import PEKind
from repro.units import US
from tests.perf.replay_oracle import checked_resume_points
from tests.perf.test_resume import _checked_synthesis
from tests.sched.reference_scheduler import exhaustive

CONFIG = CrusadeConfig(max_explicit_copies=2)
PERIODS = (25 * US, 50 * US, 100 * US, 200 * US, 400 * US)
#: Generator settings per family, beside the shared hostile ones.
FAMILIES = {
    "chains": dict(n_graphs=3, tasks_per_graph=20, avg_parallelism=1.0),
    "fan-out": dict(n_graphs=3, tasks_per_graph=20, avg_parallelism=6.0),
    "ppe-heavy": dict(
        n_graphs=4, tasks_per_graph=20, hw_only_fraction=0.7,
        mixed_fraction=0.2, asic_eligible_fraction=0.0,
        compat_group_size=2,
    ),
}
SEEDS = range(5)
CASES = [
    pytest.param(family, seed, id="%s-%d" % (family, seed))
    for family in FAMILIES
    for seed in SEEDS
]


def hostile_spec(family, seed, utilization=1.0, deadline_slack=0.4):
    """The corpus spec of ``family`` under ``seed``."""
    return generate_spec(GeneratorConfig(
        seed=seed, utilization=utilization, deadline_slack=deadline_slack,
        periods=PERIODS, **FAMILIES[family]
    ))


@functools.lru_cache(maxsize=None)
def synthesized(family, seed):
    """The spec, its default and exhaustive results, and both runs'
    counters (each spec is synthesized once per session)."""
    spec = hostile_spec(family, seed)
    tracer, full_tracer = Tracer(), Tracer()
    default = crusade(spec, config=CONFIG, tracer=tracer)
    with exhaustive():
        full = crusade(spec, config=CONFIG, tracer=full_tracer)
    return (spec, default, full, tracer.counters.as_dict(),
            full_tracer.counters.as_dict())


@pytest.mark.parametrize("family, seed", CASES)
def test_default_search_equals_exhaustive(family, seed):
    _, default, full, _, full_counters = synthesized(family, seed)
    assert canonical_result_json(default) == canonical_result_json(full)
    assert full_counters.get("prune.cut", 0) == 0
    assert full_counters.get("sched.abort", 0) == 0


def assert_valid(spec, result):
    """Both independent validators accept ``result``."""
    assoc = AssociationArray(
        spec, max_explicit_copies=CONFIG.max_explicit_copies
    )
    schedule = validate_schedule(
        result.schedule, spec, assoc, result.clustering, result.arch
    )
    assert schedule.ok, schedule.violations[:3]
    arch = validate_architecture(
        result.arch, result.clustering, spec=spec,
        policy=CONFIG.delay_policy,
    )
    assert arch.ok, arch.violations[:3]


@pytest.mark.parametrize("family, seed", CASES)
def test_validators_report_nothing(family, seed):
    spec, default, _, _, _ = synthesized(family, seed)
    assert_valid(spec, default)


@settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=max(SEEDS) + 1, max_value=10_000),
    utilization=st.floats(min_value=0.8, max_value=1.0),
    deadline_slack=st.floats(min_value=0.2, max_value=0.6),
)
def test_drawn_hostile_specs_search_exhaustively_and_validate(
    family, seed, utilization, deadline_slack
):
    """On drawn members of every family, too, the default search
    equals the exhaustive one byte for byte and its result
    validates."""
    spec = hostile_spec(family, seed, utilization, deadline_slack)
    default = crusade(spec, config=CONFIG)
    with exhaustive():
        full = crusade(spec, config=CONFIG)
    assert canonical_result_json(default) == canonical_result_json(full)
    assert_valid(spec, default)


def test_both_cuts_fire_in_the_corpus():
    counters = [synthesized(family, seed)[3]
                for family in FAMILIES for seed in SEEDS]
    assert any(c.get("prune.cut", 0) > 0 for c in counters)
    assert any(c.get("sched.abort", 0) > 0 for c in counters)


def test_ppe_heavy_family_loads_device_area():
    """The PPE-heavy family loads device area: no ASIC anywhere, most
    devices with several modes, replicated circuits, and a mode filled
    to 90 % of its ERUF cap."""
    archs = [synthesized("ppe-heavy", seed)[1].arch for seed in SEEDS]
    devices = [
        pe for arch in archs for pe in arch.pes.values()
        if pe.is_programmable
    ]
    assert sum(pe.n_modes > 1 for pe in devices) > len(devices) // 2
    assert sum(pe.has_replicas for pe in devices) >= 3
    assert all(
        pe.pe_type.kind is not PEKind.ASIC
        for arch in archs for pe in arch.pes.values()
    )
    policy = CONFIG.delay_policy
    assert max(
        mode.gates_used / policy.usable_gates(pe.pe_type)
        for pe in devices for mode in pe.modes
    ) >= 0.9


def test_a_ppe_heavy_synthesis_resumes_exactly(monkeypatch):
    """Every build of a PPE-heavy synthesis -- modes, replicas and
    reconfigurations on every device -- equals a fresh build of the
    same request, and resumes where the heap replay says it may."""
    spec = hostile_spec("ppe-heavy", 2)
    with checked_resume_points() as points:
        checked = _checked_synthesis(monkeypatch, spec, CONFIG)
    assert points[0] > 0
    assert checked.resumed_ops < checked.fresh_ops
