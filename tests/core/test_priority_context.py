"""Allocation-aware priority recomputation (Section 5)."""

import pytest

from repro import SystemSpec, Task, TaskGraph
from repro.arch.architecture import Architecture
from repro.cluster.clustering import cluster_spec
from repro.cluster.priority import PriorityContext, compute_task_priorities
from repro.core.stages.support import allocation_aware_context
from repro.graph.task import MemoryRequirement


@pytest.fixture
def chain_setup(small_library):
    g = TaskGraph(name="g", period=0.1, deadline=0.05)
    g.add_task(Task(name="a", exec_times={"CPU": 1e-3},
                    memory=MemoryRequirement(program=64)))
    g.add_task(Task(name="b", exec_times={"CPU": 2e-3, "FPGA": 1e-4},
                    memory=MemoryRequirement(program=64), area_gates=100, pins=4))
    g.add_edge("a", "b", bytes_=256)
    spec = SystemSpec("s", [g])
    clustering = cluster_spec(spec, small_library, max_cluster_size=1)
    return spec, clustering, g


class TestAllocationAwareContext:
    def test_unallocated_falls_back_to_pessimistic(
        self, small_library, chain_setup
    ):
        spec, clustering, g = chain_setup
        arch = Architecture(small_library)
        context = allocation_aware_context(
            PriorityContext.pessimistic(small_library), arch, clustering
        )
        pessimistic = PriorityContext.pessimistic(small_library)
        assert compute_task_priorities(g, context) == compute_task_priorities(
            g, pessimistic
        )

    def test_allocated_task_uses_actual_wcet(self, small_library, chain_setup):
        spec, clustering, g = chain_setup
        arch = Architecture(small_library)
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        b_cluster = clustering.cluster_of("g", "b")
        arch.allocate_cluster(b_cluster.name, fpga.id, 0, gates=100, pins=4)
        context = allocation_aware_context(
            PriorityContext.pessimistic(small_library), arch, clustering
        )
        # b now costs its FPGA time (1e-4), not the pessimistic 2e-3.
        assert context.exec_time(g, g.task("b")) == pytest.approx(1e-4)
        assert context.exec_time(g, g.task("a")) == pytest.approx(1e-3)

    def test_same_pe_edge_costs_nothing(self, small_library, chain_setup):
        spec, clustering, g = chain_setup
        arch = Architecture(small_library)
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        for name in ("a", "b"):
            cluster = clustering.cluster_of("g", name)
            arch.allocate_cluster(cluster.name, cpu.id, 0, memory=cluster.memory)
        context = allocation_aware_context(
            PriorityContext.pessimistic(small_library), arch, clustering
        )
        assert context.comm_time(g, g.edge("a", "b")) == 0.0

    def test_cross_pe_edge_uses_link_time(self, small_library, chain_setup):
        spec, clustering, g = chain_setup
        arch = Architecture(small_library)
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        a_cluster = clustering.cluster_of("g", "a")
        b_cluster = clustering.cluster_of("g", "b")
        arch.allocate_cluster(a_cluster.name, cpu.id, 0, memory=a_cluster.memory)
        arch.allocate_cluster(b_cluster.name, fpga.id, 0, gates=100, pins=4)
        bus = small_library.link_type("bus")
        link = arch.connect(cpu.id, fpga.id, bus)
        context = allocation_aware_context(
            PriorityContext.pessimistic(small_library), arch, clustering
        )
        expected = link.comm_time(256)
        assert context.comm_time(g, g.edge("a", "b")) == pytest.approx(expected)

    def test_priorities_tighten_as_allocation_improves(
        self, small_library, chain_setup
    ):
        """Placing b on the fast FPGA shortens the path through it, so
        a's urgency (priority) drops relative to the pessimistic
        estimate."""
        spec, clustering, g = chain_setup
        pessimistic = compute_task_priorities(
            g, PriorityContext.pessimistic(small_library)
        )
        arch = Architecture(small_library)
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        b_cluster = clustering.cluster_of("g", "b")
        arch.allocate_cluster(b_cluster.name, fpga.id, 0, gates=100, pins=4)
        aware = compute_task_priorities(
            g,
            allocation_aware_context(
                PriorityContext.pessimistic(small_library), arch, clustering
            ),
        )
        assert aware["a"] < pessimistic["a"]
