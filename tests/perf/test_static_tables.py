"""The static estimator tables agree bit-for-bit with per-call derivation.

A synthesis derives each graph's priority rows, floor rows, deadline
rows and smallest WCETs once, memoizes the pessimistic maxima per run
and keeps each task's smallest WCET on the scheduler plan.  The
oracle in ``tests/perf/estimator_oracle.py`` re-derives all of it from
``Task`` and ``TaskGraph`` on every call.  The property test holds
priorities, finish-time floors, deadline statistics and virtual
finish times to the oracle's floats on generated specifications with
partial allocations; the two unit cases pin what a stale table would
get wrong: a graph changed after its first pass, and two libraries
pricing the same specification.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CrusadeConfig,
    GeneratorConfig,
    SystemSpec,
    Task,
    TaskGraph,
    crusade,
    generate_spec,
)
from repro.arch.architecture import Architecture
from repro.cluster.clustering import trivial_clustering
from repro.cluster.priority import PriorityContext, compute_task_priorities
from repro.core.stages.support import allocation_aware_context
from repro.graph.association import AssociationArray
from repro.graph.task import MemoryRequirement
from repro.perf.fastsched import SchedulerContext
from repro.resources import LinkType, MemoryBank, ProcessorType, ResourceLibrary
from repro.resources.catalog import default_library
from repro.sched.bounds import deadline_floor_stats, finish_time_floor
from repro.sched.scheduler import ScheduleRequest, build_schedule
from repro.units import MB
from tests.perf import estimator_oracle as oracle
from tests.sched.reference_scheduler import build_reference_schedule

PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _bits(values: dict) -> list:
    """Items in order with each float as its exact hex form."""
    return [
        (key, value.hex() if isinstance(value, float) else value)
        for key, value in values.items()
    ]


def _partial(result, dropped: set) -> Architecture:
    """A clone of the synthesized architecture with the clusters in
    ``dropped`` unplaced, so their tasks are placed virtually."""
    arch = result.arch.clone()
    for name in sorted(dropped):
        arch.cluster_alloc.pop(name, None)
    return arch


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=60),
    drop=st.lists(st.booleans(), min_size=32, max_size=32),
)
def test_tables_equal_per_call_derivation(seed, drop):
    spec = generate_spec(GeneratorConfig(
        seed=seed, n_graphs=3, tasks_per_graph=6, compat_group_size=2,
        utilization=0.3, hw_only_fraction=0.2, mixed_fraction=0.15,
    ))
    library = default_library()
    result = crusade(spec, library=library,
                     config=CrusadeConfig(max_explicit_copies=2))
    clustering = result.clustering
    names = sorted(clustering.clusters)
    arch = _partial(result, {
        name for name, flag in zip(names, drop) if flag
    })
    pessimistic = PriorityContext.pessimistic(library)
    aware = allocation_aware_context(pessimistic, arch, clustering)
    want_pessimistic = oracle.pessimistic_context(library)
    want_aware = oracle.allocation_aware_context(library, arch, clustering)
    priorities = {}
    # Twice: the second pass reads every memo the first one filled.
    for _ in range(2):
        for name in spec.graph_names():
            graph = spec.graph(name)
            assert _bits(compute_task_priorities(graph, pessimistic)) == (
                _bits(oracle.task_priorities(graph, want_pessimistic))
            )
            got = compute_task_priorities(graph, aware)
            assert _bits(got) == _bits(
                oracle.task_priorities(graph, want_aware)
            )
            priorities[name] = got
            tables = pessimistic.tables(graph)
            assert _bits(finish_time_floor(graph, arch, clustering, tables)) == (
                _bits(oracle.finish_time_floor(graph, arch, clustering))
            )
            assert _bits(finish_time_floor(graph, arch, clustering)) == (
                _bits(oracle.finish_time_floor(graph, arch, clustering))
            )
            misses, lateness = deadline_floor_stats(
                graph, arch, clustering, tables
            )
            want = oracle.deadline_floor_stats(graph, arch, clustering)
            assert (misses, lateness.hex()) == (want[0], want[1].hex())

    # Virtual finish times: the planned scheduler (twice, the second
    # build reading the plan's memo) against the reference loop, which
    # asks each task for its smallest WCET on every placement.
    request = dict(
        spec=spec, assoc=AssociationArray(spec, max_explicit_copies=2),
        clustering=clustering, arch=arch, priorities=priorities,
    )
    reference = build_reference_schedule(ScheduleRequest(**request))
    virtual = {
        key: task.finish.hex() for key, task in reference.tasks.items()
        if task.pe_id is None
    }
    context = SchedulerContext()
    for _ in range(2):
        planned = build_schedule(ScheduleRequest(**request, context=context))
        assert {
            key: task.finish.hex() for key, task in planned.tasks.items()
            if task.pe_id is None
        } == virtual
        assert {k: t.finish for k, t in planned.tasks.items()} == {
            k: t.finish for k, t in reference.tasks.items()
        }


def _mem():
    return MemoryRequirement(program=64)


def _chain_graph():
    g = TaskGraph(name="g", period=0.1, deadline=0.02)
    g.add_task(Task(name="a", exec_times={"CPU": 1e-3, "DSP": 4e-3},
                    memory=_mem()))
    g.add_task(Task(name="b", exec_times={"CPU": 2e-3}, memory=_mem()))
    g.add_edge("a", "b", bytes_=256)
    return g


def _library(with_dsp: bool) -> ResourceLibrary:
    lib = ResourceLibrary()
    names = ("CPU", "DSP") if with_dsp else ("CPU",)
    for name in names:
        lib.add_pe_type(ProcessorType(
            name=name, cost=50.0, speed=1.0,
            memory_banks=(MemoryBank(16 * MB, 20.0),),
            context_switch_time=10e-6, preemption_overhead=30e-6,
        ))
    lib.add_link_type(LinkType(
        name="bus", cost=5.0, max_ports=4, access_times=(1e-6,) * 4,
        bytes_per_packet=64, packet_tx_time=2e-6,
    ))
    return lib


def test_graph_changed_after_its_first_pass_gets_fresh_tables():
    """``add_task``/``add_edge`` after a pass: the next pass, floor and
    deadline check see the new task, its edge and its deadline."""
    library = _library(with_dsp=True)
    context = PriorityContext.pessimistic(library)
    graph = _chain_graph()
    before = compute_task_priorities(graph, context)
    assert _bits(before) == _bits(
        oracle.task_priorities(graph, oracle.pessimistic_context(library))
    )
    arch = Architecture(library)
    clustering = trivial_clustering(SystemSpec("s", [graph]), library)
    assert context.tables(graph).topo_rows[-1][0] == "b"
    finish_time_floor(graph, arch, clustering, context.tables(graph))

    graph.add_task(Task(name="c", exec_times={"CPU": 3e-3}, memory=_mem(),
                        deadline=0.015))
    graph.add_edge("b", "c", bytes_=512)
    after = compute_task_priorities(graph, context)
    assert set(after) == {"a", "b", "c"}
    assert _bits(after) == _bits(
        oracle.task_priorities(graph, oracle.pessimistic_context(library))
    )
    assert after["a"] != before["a"]
    tables = context.tables(graph)
    assert _bits(finish_time_floor(graph, arch, clustering, tables)) == _bits(
        oracle.finish_time_floor(graph, arch, clustering)
    )
    assert deadline_floor_stats(graph, arch, clustering, tables) == (
        oracle.deadline_floor_stats(graph, arch, clustering)
    )


def test_each_library_gets_its_own_pessimistic_maxima():
    """The same task priced by a library with and one without its
    slowest PE type: each context memoizes its own maximum."""
    graph = _chain_graph()
    full, lacking = _library(with_dsp=True), _library(with_dsp=False)
    full_context = PriorityContext.pessimistic(full)
    lacking_context = PriorityContext.pessimistic(lacking)
    task = graph.task("a")
    assert full_context.exec_time(graph, task) == 4e-3
    assert lacking_context.exec_time(graph, task) == 1e-3
    for library, context in ((full, full_context), (lacking, lacking_context)):
        assert _bits(compute_task_priorities(graph, context)) == _bits(
            oracle.task_priorities(graph, oracle.pessimistic_context(library))
        )
    assert compute_task_priorities(graph, full_context)["a"] == (
        pytest.approx(compute_task_priorities(graph, lacking_context)["a"]
                      + 3e-3)
    )
