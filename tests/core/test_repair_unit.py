"""Direct unit coverage for the repair pass (repro.core.stages.repair).

The end-to-end suites only exercise repair through full ``crusade()``
runs; these tests drive :func:`repair_pass` against handcrafted
architectures so its edge cases are pinned on their own: the
no-offender fast path, non-converging repair (returned infeasible
rather than raised), and the offender walk up a critical chain.
"""

import pytest

from repro import CrusadeConfig, SystemSpec, Task, TaskGraph, Tracer, crusade
from repro.arch.architecture import Architecture
from repro.cluster.clustering import trivial_clustering
from repro.cluster.priority import PriorityContext
from repro.core.stages.repair import repair_pass
from repro.core.stages.support import (
    allocation_aware_context,
    compute_priorities,
)
from repro.graph.association import AssociationArray
from repro.graph.task import MemoryRequirement
from repro.obs.trace import MemorySink
from repro.alloc.evaluate import evaluate_architecture


def _mem():
    return MemoryRequirement(program=64)


def _place(arch, clustering, cluster_name, pe_id, mode=0):
    cluster = clustering.clusters[cluster_name]
    arch.allocate_cluster(
        cluster_name, pe_id, mode,
        gates=cluster.area_gates, pins=cluster.pins, memory=cluster.memory,
    )


def _evaluate(spec, library, clustering, arch, tracer):
    assoc = AssociationArray(spec, max_explicit_copies=2)
    context = allocation_aware_context(
        PriorityContext.pessimistic(library), arch, clustering
    )
    priorities = compute_priorities(spec, context)
    verdict = evaluate_architecture(
        spec, assoc, clustering, arch, priorities,
        preemption=True, tracer=tracer,
    )
    return assoc, priorities, verdict


def _chain_spec(deadline, b_exec_fpga=None):
    """a -> b -> c software chain; b optionally hardware-capable."""
    g = TaskGraph(name="chain", period=0.1, deadline=deadline)
    b_times = {"CPU": 0.001}
    if b_exec_fpga is not None:
        b_times["FPGA"] = b_exec_fpga
    g.add_task(Task(name="a", exec_times={"CPU": 0.001}, memory=_mem()))
    g.add_task(Task(name="b", exec_times=b_times, memory=_mem(),
                    area_gates=50, pins=8))
    g.add_task(Task(name="c", exec_times={"CPU": 0.001}, memory=_mem()))
    g.add_edge("a", "b", bytes_=0)
    g.add_edge("b", "c", bytes_=0)
    return SystemSpec("chain-sys", [g])


class TestNoOffenderPath:
    def test_feasible_input_is_returned_untouched(self, small_library):
        """A verdict that already meets every deadline short-circuits:
        no rounds, no re-homings, the same object back."""
        spec = _chain_spec(deadline=0.01)
        clustering = trivial_clustering(spec, small_library)
        arch = Architecture(small_library)
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        for name in clustering.clusters:
            _place(arch, clustering, name, cpu.id)
        tracer = Tracer()
        assoc, priorities, current = _evaluate(
            spec, small_library, clustering, arch, tracer
        )
        assert current.report.all_met
        result = repair_pass(
            spec, assoc, clustering, current, priorities, None,
            CrusadeConfig(reconfiguration=False), tracer,
        )
        assert result is current
        counters = tracer.counters.as_dict()
        assert counters.get("repair.rounds", 0) == 0
        assert counters.get("repair.rehomings_tried", 0) == 0

    def test_repair_stage_skips_when_full_check_passed(self, small_library):
        """The pipeline's repair gate mirrors the fast path: a full
        check that meets every deadline never enters the repair pass."""
        tracer = Tracer()
        result = crusade(
            _chain_spec(deadline=0.01),
            library=small_library,
            config=CrusadeConfig(reconfiguration=False),
            tracer=tracer,
        )
        assert result.feasible
        counters = tracer.counters.as_dict()
        assert counters["stage.repair.skipped"] == 1
        assert "stage.repair.runs" not in counters
        assert "repair.rounds" not in counters


class TestNonConvergence:
    def test_unfixable_system_returned_infeasible_not_raised(
        self, small_library
    ):
        """When no re-homing can help (the one task's execution time
        alone exceeds the deadline on every resource), repair gives up
        cleanly: the verdict comes back with ``all_met`` False and
        badness no worse than it started."""
        g = TaskGraph(name="hopeless", period=0.1, deadline=0.005)
        g.add_task(Task(name="t", exec_times={"CPU": 0.02}, memory=_mem()))
        spec = SystemSpec("hopeless-sys", [g])
        clustering = trivial_clustering(spec, small_library)
        arch = Architecture(small_library)
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        for name in clustering.clusters:
            _place(arch, clustering, name, cpu.id)
        tracer = Tracer()
        assoc, priorities, current = _evaluate(
            spec, small_library, clustering, arch, tracer
        )
        assert not current.report.all_met
        result = repair_pass(
            spec, assoc, clustering, current, priorities, None,
            CrusadeConfig(reconfiguration=False), tracer,
        )
        assert not result.report.all_met
        assert result.badness() <= current.badness()
        counters = tracer.counters.as_dict()
        # It did try (at least one round) but stopped without
        # claiming progress it could not make.
        assert counters.get("repair.rounds", 0) >= 1
        assert counters.get("repair.rehomings_kept", 0) == 0


class TestOffenderWalk:
    def test_critical_chain_walk_rehomes_the_upstream_bottleneck(
        self, small_library
    ):
        """The late task is ``c``, but the bottleneck is its
        predecessor ``b`` stuck on a slow FPGA placement.  The
        offender walk must climb the chain from the late task to
        ``b``'s cluster and re-home *it* -- re-homing ``c`` alone can
        never recover the deadline."""
        spec = _chain_spec(deadline=0.005, b_exec_fpga=0.02)
        clustering = trivial_clustering(spec, small_library)
        b_cluster = clustering.task_to_cluster[("chain", "b")]
        arch = Architecture(small_library)
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        for name in clustering.clusters:
            _place(arch, clustering, name,
                   fpga.id if name == b_cluster else cpu.id)
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        assoc, priorities, current = _evaluate(
            spec, small_library, clustering, arch, tracer
        )
        assert not current.report.all_met
        result = repair_pass(
            spec, assoc, clustering, current, priorities, None,
            CrusadeConfig(reconfiguration=False), tracer,
        )
        assert result.report.all_met
        solved = sink.named("repair.solved")
        assert solved and solved[-1].fields["cluster"] == b_cluster
        placement = result.arch.placement_of(b_cluster)
        assert result.arch.pe(placement[0]).pe_type.name == "CPU"
