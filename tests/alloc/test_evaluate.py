"""apply_option / evaluate_architecture internals."""

import pytest

from repro import AllocationError, DelayPolicy, SystemSpec, Task, TaskGraph
from repro.arch.architecture import Architecture
from repro.cluster.clustering import cluster_spec
from repro.cluster.priority import PriorityContext
from repro.core.stages.support import compute_priorities
from repro.graph.association import AssociationArray
from repro.graph.task import MemoryRequirement
from repro.alloc.array import AllocationKind, AllocationOption, build_allocation_array
from repro.alloc.evaluate import (
    apply_option,
    choose_link_type,
    evaluate_architecture,
)


def two_cluster_spec():
    """A software producer feeding a hardware consumer: forces an
    inter-PE edge once allocated to CPU + FPGA."""
    g = TaskGraph(name="g", period=0.1, deadline=0.05)
    g.add_task(Task(name="sw", exec_times={"CPU": 1e-3},
                    memory=MemoryRequirement(program=2048)))
    g.add_task(Task(name="hw", exec_times={"FPGA": 1e-4},
                    area_gates=300, pins=8))
    g.add_edge("sw", "hw", bytes_=128)
    return SystemSpec("s", [g])


class TestChooseLinkType:
    def test_cheapest(self, library):
        link = choose_link_type(Architecture(library), "cheapest")
        costs = [l.instance_cost(2) for l in library.links_by_cost()]
        assert link.instance_cost(2) == min(costs)

    def test_fastest(self, library):
        link = choose_link_type(Architecture(library), "fastest")
        times = [l.comm_time(256) for l in library.links_by_cost()]
        assert link.comm_time(256) == min(times)

    def test_unknown_strategy(self, library):
        with pytest.raises(AllocationError):
            choose_link_type(Architecture(library), "psychic")


class TestApplyOption:
    def test_new_pe_and_link_created(self, small_library):
        spec = two_cluster_spec()
        clustering = cluster_spec(spec, small_library)
        arch = Architecture(small_library)
        by_types = {
            tuple(sorted(c.allowed_pe_types)): c
            for c in clustering.clusters.values()
        }
        sw_cluster = by_types[("CPU",)]
        hw_cluster = by_types[("FPGA",)]
        apply_option(
            AllocationOption(kind=AllocationKind.NEW_PE, est_cost=50.0,
                             preference=1.0, pe_type_name="CPU"),
            arch, sw_cluster, clustering, spec,
        )
        assert arch.n_pes == 1 and arch.n_links == 0
        apply_option(
            AllocationOption(kind=AllocationKind.NEW_PE, est_cost=100.0,
                             preference=1.0, pe_type_name="FPGA"),
            arch, hw_cluster, clustering, spec,
        )
        # Allocating the second endpoint wires the inter-PE edge.
        assert arch.n_pes == 2
        assert arch.n_links == 1
        cpu_id = arch.placement_of(sw_cluster.name)[0]
        fpga_id = arch.placement_of(hw_cluster.name)[0]
        assert arch.find_link_between(cpu_id, fpga_id) is not None

    def test_memory_accounted(self, small_library):
        spec = two_cluster_spec()
        clustering = cluster_spec(spec, small_library)
        arch = Architecture(small_library)
        sw_cluster = [
            c for c in clustering.clusters.values() if "CPU" in c.allowed_pe_types
        ][0]
        pe = apply_option(
            AllocationOption(kind=AllocationKind.NEW_PE, est_cost=50.0,
                             preference=1.0, pe_type_name="CPU"),
            arch, sw_cluster, clustering, spec,
        )
        assert pe.memory_demand.total == sw_cluster.memory.total


class TestEvaluateArchitecture:
    def build(self, small_library):
        spec = two_cluster_spec()
        clustering = cluster_spec(spec, small_library)
        arch = Architecture(small_library)
        for cluster in clustering.ordered_by_priority():
            options = build_allocation_array(
                cluster, arch, clustering, spec, DelayPolicy()
            )
            apply_option(options[0], arch, cluster, clustering, spec)
        assoc = AssociationArray(spec, max_explicit_copies=2)
        priorities = compute_priorities(
            spec, PriorityContext.pessimistic(small_library)
        )
        return spec, assoc, clustering, arch, priorities

    def test_full_evaluation(self, small_library):
        spec, assoc, clustering, arch, priorities = self.build(small_library)
        verdict = evaluate_architecture(spec, assoc, clustering, arch, priorities)
        assert verdict.feasible
        assert verdict.cost == pytest.approx(arch.cost)
        assert verdict.badness() == (0, 0.0, verdict.cost)

    def test_scoped_evaluation_covers_subset(self, small_library):
        spec, assoc, clustering, arch, priorities = self.build(small_library)
        verdict = evaluate_architecture(
            spec, assoc, clustering, arch, priorities, graphs=["g"]
        )
        assert verdict.feasible
        scheduled_graphs = {k[0] for k in verdict.schedule.tasks}
        assert scheduled_graphs == {"g"}

    def test_scope_memoization(self, small_library):
        from repro.alloc.evaluate import _scope

        spec, assoc, *_ = self.build(small_library)
        a = _scope(spec, assoc, ["g"])
        b = _scope(spec, assoc, ["g"])
        assert a[0] is b[0]
