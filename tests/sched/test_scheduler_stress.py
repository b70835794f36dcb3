"""Scheduler stress property: random placements over random graphs
always yield internally consistent schedules."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GeneratorConfig, default_library, generate_spec
from repro.arch.architecture import Architecture
from repro.cluster.clustering import cluster_spec
from repro.cluster.priority import PriorityContext
from repro.core.stages.support import compute_priorities
from repro.graph.association import AssociationArray
from repro.resources.pe import PEKind
from repro.sched.scheduler import ScheduleRequest, build_schedule
from repro.sched.validate import validate_schedule


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    placement_seed=st.integers(min_value=0, max_value=1000),
)
def test_random_placements_schedule_consistently(seed, placement_seed):
    """Allocate every cluster to a RANDOM capable PE (ignoring
    capacity wisdom entirely), fully connect the PEs, schedule, and
    run the independent validator.  The scheduler must produce a
    precedence/exclusivity/mode-consistent schedule no matter how bad
    the placement is (deadlines may miss; structure may not)."""
    library = default_library()
    spec = generate_spec(GeneratorConfig(
        seed=seed, n_graphs=2, tasks_per_graph=6, compat_group_size=1,
    ))
    clustering = cluster_spec(spec, library)
    arch = Architecture(library)
    rng = random.Random(placement_seed)

    for cluster in clustering.ordered_by_priority():
        capable = [
            t for t in library.all_pe_types_by_cost()
            if t.name in cluster.allowed_pe_types
        ]
        pe_type = rng.choice(capable)
        pe = arch.new_pe(pe_type)
        mode = 0
        if pe.is_programmable and rng.random() < 0.3:
            mode = pe.new_mode().index
        arch.allocate_cluster(
            cluster.name, pe.id, mode,
            gates=cluster.area_gates, pins=cluster.pins, memory=cluster.memory,
        )
    # Fully connect with the cheapest bus family (new instances as the
    # port limit fills).
    bus = library.links_by_cost()[0]
    ids = sorted(arch.pes)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            try:
                arch.connect(a, b, bus)
            except Exception:
                link = arch.new_link(bus)
                link.attach(a)
                link.attach(b)

    assoc = AssociationArray(spec, max_explicit_copies=2)
    priorities = compute_priorities(spec, PriorityContext.pessimistic(library))
    schedule = build_schedule(ScheduleRequest(
        spec=spec, assoc=assoc, clustering=clustering, arch=arch,
        priorities=priorities,
    ))
    report = validate_schedule(schedule, spec, assoc, clustering, arch)
    assert report.ok, report.violations[:5]
