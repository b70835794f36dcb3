"""Incumbent-driven bound aborts are pure dominance, not a heuristic.

Property suite fuzzing generated workloads: the synthesized result
must be byte-identical with bound aborts on and off (off inside
:func:`tests.sched.reference_scheduler.exhaustive`) -- an aborted
candidate provably loses to the incumbent that bounded it, so
dropping it can never change the selection.  Unit
tests pin the trigger itself: the scheduler raises
:class:`ScheduleAbort` with the right reason the moment the partial
schedule's violation count exceeds the bound, and never when no bound
is given.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CrusadeConfig,
    GeneratorConfig,
    SystemSpec,
    Task,
    TaskGraph,
    Tracer,
    crusade,
    generate_spec,
)
from repro.arch.architecture import Architecture
from repro.cluster.clustering import trivial_clustering
from repro.cluster.priority import PriorityContext
from repro.core.stages.support import compute_priorities
from repro.graph.association import AssociationArray
from repro.graph.task import MemoryRequirement
from repro.io.result_json import result_to_dict
from tests.sched.reference_scheduler import ReferenceEngine, exhaustive
from repro.sched.scheduler import (
    ScheduleAbort,
    ScheduleRequest,
    build_schedule,
)

PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_spec(seed, utilization=0.5):
    return generate_spec(GeneratorConfig(
        seed=seed, n_graphs=2, tasks_per_graph=6, compat_group_size=2,
        utilization=utilization, hw_only_fraction=0.2, mixed_fraction=0.15,
    ))


def canonical(spec, tracer=None, **config_kw):
    config = CrusadeConfig(max_explicit_copies=2, **config_kw)
    result = crusade(spec, config=config, tracer=tracer)
    payload = result_to_dict(result)
    payload.pop("cpu_seconds", None)
    payload.pop("stats", None)
    return json.dumps(payload, sort_keys=True)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=40), reconfig=st.booleans())
def test_bound_abort_equals_exhaustive(seed, reconfig):
    spec = make_spec(seed)
    bounded = canonical(spec, reconfiguration=reconfig)
    with exhaustive(keep_floors=True):
        full = canonical(spec, reconfiguration=reconfig)
    assert bounded == full


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=20))
def test_bound_abort_equals_exhaustive_under_pressure(seed):
    """Full-utilization workloads: many infeasible candidates, so
    incumbents are established early and later evaluations abort."""
    spec = generate_spec(GeneratorConfig(
        seed=seed, n_graphs=3, tasks_per_graph=7, compat_group_size=2,
        utilization=1.0, hw_only_fraction=0.1, mixed_fraction=0.1,
    ))
    bounded = canonical(spec)
    with exhaustive(keep_floors=True):
        assert canonical(spec) == bounded


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=20))
def test_bound_abort_composes_with_prune_off(seed):
    """The two dominance layers switch off independently."""
    spec = make_spec(seed)
    with exhaustive(keep_aborts=True):
        bounded = canonical(spec)
    with exhaustive():
        assert canonical(spec) == bounded


def _pressure_counters(engine=None, aborts=True):
    spec = generate_spec(GeneratorConfig(
        seed=12, n_graphs=3, tasks_per_graph=7, compat_group_size=2,
        utilization=1.0, hw_only_fraction=0.1, mixed_fraction=0.1,
    ))
    tracer = Tracer()
    with exhaustive(keep_floors=True, keep_aborts=aborts):
        crusade(
            spec,
            config=CrusadeConfig(max_explicit_copies=2),
            tracer=tracer,
            engine=engine,
        )
    return tracer.counters.as_dict()


def test_abort_counters_under_pressure():
    """The pinned high-pressure workload actually aborts, the reason
    counters partition the total, and switching aborts off zeroes it."""
    c = _pressure_counters()
    assert c.get("sched.abort", 0) > 0
    reasons = sum(v for k, v in c.items() if k.startswith("sched.abort."))
    assert reasons == c["sched.abort"]
    off = _pressure_counters(aborts=False)
    assert off.get("sched.abort", 0) == 0


def test_abort_counters_match_across_engine_paths():
    """The trigger is an exact integer comparison on final violation
    counts, so the engine and the from-scratch reference scheduler
    abort the *same* evaluations -- the totals and every decision
    counter match.  Only the per-reason split may differ: the engine
    books an abort tipped by a cached fragment as "carried", which the
    from-scratch run attributes to the violation it re-discovers
    in-run."""
    names = ("sched.abort", "alloc.options.considered",
             "alloc.options.infeasible", "prune.cut", "prune.kept")
    engine = _pressure_counters()
    scratch = _pressure_counters(engine=ReferenceEngine())
    assert engine.get("sched.abort", 0) > 0
    for name in names:
        assert engine.get(name, 0) == scratch.get(name, 0), name
    for c in (engine, scratch):
        reasons = sum(v for k, v in c.items() if k.startswith("sched.abort."))
        assert reasons == c["sched.abort"]
    assert scratch.get("sched.abort.carried", 0) == 0


# ---------------------------------------------------------------- units

def _mem():
    return MemoryRequirement(program=1024, data=512, stack=128)


def _chain_setup(small_library, period=0.01, deadline=0.0008):
    """A three-task CPU chain; tight deadlines provoke misses, a tight
    period provokes an overload."""
    g = TaskGraph(name="late", period=period, deadline=deadline)
    for name in ("a", "b", "c"):
        g.add_task(Task(name=name, exec_times={"CPU": 0.0005}, memory=_mem()))
    g.add_edge("a", "b", bytes_=64)
    g.add_edge("b", "c", bytes_=64)
    spec = SystemSpec("late", [g])
    clustering = trivial_clustering(spec, small_library)
    arch = Architecture(small_library)
    pe = arch.new_pe(small_library.pe_type("CPU"))
    for cluster in clustering.ordered_by_priority():
        arch.allocate_cluster(
            cluster.name, pe.id, 0, gates=cluster.area_gates,
            pins=cluster.pins, memory=cluster.memory,
        )
    assoc = AssociationArray(spec, max_explicit_copies=2)
    priorities = compute_priorities(
        spec, PriorityContext.pessimistic(small_library)
    )
    return ScheduleRequest(
        spec=spec, assoc=assoc, clustering=clustering, arch=arch,
        priorities=priorities, preemption=True,
    )


def test_scheduler_aborts_on_provable_deadline_miss(small_library):
    from dataclasses import replace

    request = _chain_setup(small_library)
    # No bound: the schedule completes (and genuinely misses).
    build_schedule(request)
    with pytest.raises(ScheduleAbort) as exc:
        build_schedule(replace(request, bound=(0, 0.0, 0.0)))
    assert exc.value.reason == "deadline"


def test_scheduler_aborts_on_provable_overload(small_library):
    from dataclasses import replace

    # Comfortable deadline, impossible period: 3 x 0.5 ms of demand
    # against a 1 ms hyperperiod crosses capacity mid-schedule.
    request = _chain_setup(small_library, period=0.001, deadline=0.01)
    build_schedule(request)
    with pytest.raises(ScheduleAbort) as exc:
        build_schedule(replace(request, bound=(0, 0.0, 0.0)))
    assert exc.value.reason == "overload"


def test_loose_bound_never_fires(small_library):
    from dataclasses import replace

    from repro.sched.finish_time import evaluate_deadlines

    request = _chain_setup(small_library)
    schedule = build_schedule(request)
    report = evaluate_deadlines(schedule, request.spec, request.assoc)
    violations = report.badness()[0]
    # A bound the candidate does not exceed must never abort, and the
    # schedule must be the one the unbounded run produces.
    bounded = build_schedule(
        replace(request, bound=(violations, float("inf"), float("inf")))
    )
    assert bounded.tasks.keys() == schedule.tasks.keys()
    for key, placed in schedule.tasks.items():
        assert bounded.tasks[key].finish == placed.finish


def test_abort_is_exact_at_the_boundary(small_library):
    """bound[0] = violations - 1 fires; bound[0] = violations does
    not: the trigger is `violations > bound[0]`, exactly."""
    from dataclasses import replace

    from repro.sched.finish_time import evaluate_deadlines

    request = _chain_setup(small_library)
    schedule = build_schedule(request)
    report = evaluate_deadlines(schedule, request.spec, request.assoc)
    violations = report.badness()[0]
    assert violations >= 1
    with pytest.raises(ScheduleAbort):
        build_schedule(
            replace(request, bound=(violations - 1, 0.0, 0.0))
        )
    build_schedule(replace(request, bound=(violations, 0.0, 0.0)))
