"""Candidate pruning is dominance pruning, not a heuristic.

Property suite fuzzing generated workloads: the synthesized result
must be byte-identical with pruning on and off (off inside
:func:`tests.sched.reference_scheduler.exhaustive`) -- including workloads
that drive the deferred least-infeasible fallback reconstruction.
Pinned counts hold the cuts the two floors make on benchmark inputs.
Unit tests pin the bound primitives: a deliberately deadline-infeasible
candidate is cut without any scheduler call, the finish-time floor
never exceeds the real schedule, the repair floor never exceeds a
full evaluation, a reused pruner answers as a fresh pruner does, and
the demand floor's memo ends with its run.
"""

import gc
import json
import weakref

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
from repro.graph.association import AssociationArray
from repro.graph.task import MemoryRequirement
from repro.io.result_json import result_to_dict
from repro.perf.prune import CandidatePruner, RepairBound
from repro.resources import (
    LinkType,
    MemoryBank,
    ProcessorType,
    ResourceLibrary,
)
from repro.sched.bounds import demand_floor, finish_time_floor
from repro.units import MB
from tests.sched.reference_scheduler import exhaustive

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
def test_pruned_equals_exhaustive(seed, reconfig):
    spec = make_spec(seed)
    pruned = canonical(spec, reconfiguration=reconfig)
    with exhaustive(keep_aborts=True):
        unpruned = canonical(spec, reconfiguration=reconfig)
    assert pruned == unpruned


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=20))
def test_pruned_equals_exhaustive_under_pressure(seed):
    """Full-utilization workloads: many candidates are provably
    infeasible, so the cut rate is high and infeasible clusters route
    through the deferred fallback reconstruction."""
    spec = generate_spec(GeneratorConfig(
        seed=seed, n_graphs=3, tasks_per_graph=7, compat_group_size=2,
        utilization=1.0, hw_only_fraction=0.1, mixed_fraction=0.1,
    ))
    pruned = canonical(spec)
    with exhaustive(keep_aborts=True):
        assert canonical(spec) == pruned


def test_prune_cuts_and_counters_balance():
    """Pinned workload with a high cut rate: the decision identity
    prune.cut + prune.kept == considered - apply_failed holds on the
    allocation loop's counters, and the fallback reconstruction both
    evaluates and skips pruned candidates."""
    spec = generate_spec(GeneratorConfig(
        seed=12, n_graphs=3, tasks_per_graph=7, compat_group_size=2,
        utilization=1.0, hw_only_fraction=0.1, mixed_fraction=0.1,
    ))
    tracer = Tracer()
    crusade(spec, config=CrusadeConfig(max_explicit_copies=2), tracer=tracer)
    c = tracer.counters.as_dict()
    assert c.get("prune.cut", 0) > 0
    assert c.get("prune.fallback_evals", 0) > 0
    assert c.get("prune.fallback_skipped", 0) > 0
    # Reason counters partition the cuts.
    reasons = sum(v for k, v in c.items() if k.startswith("prune.cut."))
    assert reasons == c["prune.cut"]
    # Decision identity on the allocation loop: every applied candidate
    # is either cut or kept (the repair share counted apart).
    alloc_cut = c["prune.cut"] - c.get("prune.cut.repair", 0)
    alloc_kept = c["prune.kept"] - c.get("prune.kept.repair", 0)
    assert alloc_cut + alloc_kept == (
        c["alloc.options.considered"] - c.get("alloc.options.apply_failed", 0)
    )


def test_decision_counters_match_across_engine_paths():
    """Prune decisions are identical whether candidates are evaluated
    through the incremental engine or the reference scheduler."""
    from tests.sched.reference_scheduler import ReferenceEngine

    spec = make_spec(3)
    names = (
        "prune.cut", "prune.kept", "prune.fallback_evals",
        "prune.fallback_skipped", "alloc.options.considered",
        "alloc.options.infeasible",
    )

    def counters(engine):
        tracer = Tracer()
        config = CrusadeConfig(max_explicit_copies=2)
        crusade(spec, config=config, tracer=tracer, engine=engine)
        return tracer.counters.as_dict()

    incremental = counters(None)
    scratch = counters(ReferenceEngine())
    for name in names:
        assert incremental.get(name, 0) == scratch.get(name, 0), name


# ---------------------------------------------------------------- units

def _mem():
    return MemoryRequirement(program=1024, data=512, stack=128)


def _late_chain_setup(small_library, deadline=0.0008):
    """A three-task CPU chain whose critical path (3 x (0.5 ms + ctx))
    provably exceeds the deadline."""
    g = TaskGraph(name="late", period=0.01, deadline=deadline)
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
    return spec, assoc, clustering, arch, pe


def test_deadline_infeasible_candidate_cut_without_scheduling(
    small_library, monkeypatch
):
    spec, assoc, clustering, arch, _ = _late_chain_setup(small_library)

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("the pruner must not invoke the scheduler")

    import repro.sched.scheduler as scheduler

    monkeypatch.setattr(scheduler, "build_schedule", boom)

    cluster = clustering.clusters[
        clustering.task_to_cluster[("late", "c")]
    ]
    pruner = CandidatePruner(spec, assoc, clustering, cluster)
    verdict = pruner.bound(arch, graphs=None)
    assert verdict is not None
    assert verdict.reason == "deadline"
    assert verdict.floor[0] >= 1
    assert verdict.floor[1] > 0.0
    # A second call prices the same architecture again, still with no
    # scheduler.
    again = pruner.bound(arch, graphs=None)
    assert (again.reason, again.floor) == (verdict.reason, verdict.floor)


def test_feasible_candidate_is_not_cut(small_library):
    # Same chain with a comfortable deadline: no cut.
    spec, assoc, clustering, arch, _ = _late_chain_setup(
        small_library, deadline=0.008
    )
    cluster = clustering.clusters[clustering.task_to_cluster[("late", "a")]]
    pruner = CandidatePruner(spec, assoc, clustering, cluster)
    assert pruner.bound(arch, graphs=None) is None


def test_finish_time_floor_is_dominated_by_real_schedule(small_library):
    """The copy-0 floor charges each CPU task its context switch and
    never exceeds the scheduler's finish times."""
    from repro.cluster.priority import PriorityContext
    from repro.core.stages.support import compute_priorities
    from repro.sched.scheduler import ScheduleRequest, build_schedule

    spec, assoc, clustering, arch, pe = _late_chain_setup(
        small_library, deadline=0.008
    )
    graph = spec.graph("late")
    floor = finish_time_floor(graph, arch, clustering)
    ctx = small_library.pe_type("CPU").context_switch_time
    assert floor["a"] == pytest.approx(0.0005 + ctx, rel=1e-12)
    priorities = compute_priorities(
        spec, PriorityContext.pessimistic(small_library)
    )
    schedule = build_schedule(ScheduleRequest(
        spec=spec, assoc=assoc, clustering=clustering, arch=arch,
        priorities=priorities, preemption=True,
    ))
    for task_name in graph.topological_order():
        actual = schedule.tasks[("late", 0, task_name)].finish
        assert floor[task_name] <= actual, task_name


def test_demand_floor_sums_serial_occupancy(small_library):
    spec, assoc, clustering, arch, pe = _late_chain_setup(small_library)
    demand = demand_floor(arch, clustering, spec, assoc)
    ctx = small_library.pe_type("CPU").context_switch_time
    copies = assoc.n_copies("late")
    expected = 3 * (0.0005 + ctx) * copies
    assert demand[pe.id] == pytest.approx(expected, rel=1e-12)


def test_repair_bound_counts_a_demand_overload(small_library):
    """Three independent 0.5 ms tasks on one CPU every 1 ms: the
    demand floor overloads the CPU, and the floor stays below the
    badness a full evaluation finds."""
    from repro.alloc.evaluate import evaluate_architecture
    from repro.cluster.priority import PriorityContext
    from repro.core.stages.support import compute_priorities

    g = TaskGraph(name="busy", period=0.001, deadline=0.001)
    for name in ("a", "b", "c"):
        g.add_task(Task(name=name, exec_times={"CPU": 0.0005}, memory=_mem()))
    spec = SystemSpec("busy", [g])
    clustering = trivial_clustering(spec, small_library)
    arch = Architecture(small_library)
    pe = arch.new_pe(small_library.pe_type("CPU"))
    for cluster in clustering.ordered_by_priority():
        arch.allocate_cluster(
            cluster.name, pe.id, 0, gates=cluster.area_gates,
            pins=cluster.pins, memory=cluster.memory,
        )
    assoc = AssociationArray(spec, max_explicit_copies=2)
    floor = RepairBound(spec, assoc, clustering).badness_floor(arch)
    assert floor[0] >= 1
    priorities = compute_priorities(
        spec, PriorityContext.pessimistic(small_library)
    )
    verdict = evaluate_architecture(spec, assoc, clustering, arch, priorities)
    assert floor <= verdict.badness()


def _two_link_setup(link_name):
    """Tasks a -> b on two CPUs joined by one link of ``link_name``:
    the 6400-byte edge takes 100 packets, 20 ms on the slow link
    against a 10 ms period and 0.2 ms on the fast one."""
    lib = ResourceLibrary()
    lib.add_pe_type(ProcessorType(
        name="CPU", cost=50.0, speed=1.0,
        memory_banks=(MemoryBank(16 * MB, 20.0),),
        context_switch_time=10e-6, preemption_overhead=30e-6,
    ))
    for name, cost, packet_time in (("slow", 1.0, 200e-6),
                                    ("fast", 40.0, 2e-6)):
        lib.add_link_type(LinkType(
            name=name, cost=cost, max_ports=2, access_times=(1e-6, 1e-6),
            bytes_per_packet=64, packet_tx_time=packet_time,
        ))
    g = TaskGraph(name="g", period=0.01, deadline=0.01)
    for name in ("a", "b"):
        g.add_task(Task(name=name, exec_times={"CPU": 0.0005}, memory=_mem()))
    g.add_edge("a", "b", bytes_=6400)
    spec = SystemSpec("links", [g])
    clustering = trivial_clustering(spec, lib)
    arch = Architecture(lib)
    pes = {}
    for task in ("a", "b"):
        cluster = clustering.clusters[clustering.task_to_cluster[("g", task)]]
        pe = pes[task] = arch.new_pe(lib.pe_type("CPU"))
        arch.allocate_cluster(
            cluster.name, pe.id, 0, gates=cluster.area_gates,
            pins=cluster.pins, memory=cluster.memory,
        )
    arch.connect(pes["a"].id, pes["b"].id, lib.link_type(link_name))
    assoc = AssociationArray(spec, max_explicit_copies=2)
    cluster = clustering.clusters[clustering.task_to_cluster[("g", "b")]]
    return spec, assoc, clustering, cluster, arch


def test_pruner_answers_as_a_fresh_pruner_across_link_strategies():
    """Allocation reuses one pruner across link strategies, so the
    same option lands on a slow-link and then a fast-link
    architecture; the reused pruner's answer must be the one a fresh
    pruner gives for the fast link (a verdict kept per option would
    answer with the slow link's)."""
    spec, assoc, clustering, cluster, slow_arch = _two_link_setup("slow")
    *_, fast_arch = _two_link_setup("fast")
    fresh = CandidatePruner(spec, assoc, clustering, cluster)
    expected = fresh.bound(fast_arch, graphs=None)
    reused = CandidatePruner(spec, assoc, clustering, cluster)
    reused.bound(slow_arch, graphs=None)
    answer = reused.bound(fast_arch, graphs=None)
    assert (answer is None) == (expected is None)
    assert expected is None


def _prune_counters(spec):
    tracer = Tracer()
    crusade(spec, config=CrusadeConfig(), tracer=tracer)
    c = tracer.counters.as_dict()
    return {k: v for k, v in c.items() if k.startswith("prune.cut")}, \
        c.get("prune.kept", 0)


def test_demand_floor_cuts_pinned_on_a1tr():
    """A1TR@0.05 (a benchmark input): the target-PE demand floor makes
    all seven cuts."""
    from repro.bench.examples import build_example

    cuts, kept = _prune_counters(build_example("A1TR", 0.05))
    assert cuts == {"prune.cut": 7, "prune.cut.overload": 7}
    assert kept == 314


def test_a_finished_synthesis_is_freed():
    """The demand floor's per-cluster totals live with their run: once
    a synthesis's spec and result are dropped, the spec, clustering
    and architecture are freed, with no module state cleared."""
    from repro.bench.examples import build_example

    spec = build_example("A1TR", 0.05)
    tracer = Tracer()
    result = crusade(spec, tracer=tracer)
    assert tracer.counters.get("prune.cut.overload") > 0
    alive = [
        weakref.ref(spec), weakref.ref(result.clustering),
        weakref.ref(result.arch),
    ]
    del spec, result
    gc.collect()
    assert [ref() for ref in alive] == [None, None, None]


def test_finish_time_floor_cuts_pinned_on_a_service_pool_spec():
    """The first service-mix pool spec (a benchmark input): the
    finish-time floor makes both cuts."""
    spec = generate_spec(
        GeneratorConfig(seed=7000, n_graphs=3, tasks_per_graph=12),
        name="pool00",
    )
    cuts, kept = _prune_counters(spec)
    assert cuts == {"prune.cut": 2, "prune.cut.deadline": 2}
    assert kept == 36
