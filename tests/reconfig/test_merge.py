"""The Figure 3 merge procedure."""

import pytest

from repro import AllocationError, DelayPolicy, SystemSpec, Task, TaskGraph
from repro.arch.architecture import Architecture
from repro.cluster.clustering import cluster_spec
from repro.cluster.priority import PriorityContext
from repro.core.stages.support import compute_priorities
from repro.graph.association import AssociationArray
from repro.reconfig.compatibility import CompatibilityAnalysis
from repro.reconfig.merge import merge_reconfigurable_pes
from repro.alloc.evaluate import evaluate_architecture


def hw_graph(name, est, period=1.0, gates=800):
    g = TaskGraph(name=name, period=period, deadline=period / 2, est=est)
    g.add_task(Task(name=name + ".t", exec_times={"FPGA": 1e-3},
                    area_gates=gates, pins=10))
    return g


@pytest.fixture
def merge_setup(small_library):
    """Two compatible graphs on two separate single-mode FPGAs: the
    canonical merge opportunity."""
    spec = SystemSpec(
        "s",
        [hw_graph("ga", est=0.0), hw_graph("gb", est=0.5)],
        compatibility=[("ga", "gb")],
    )
    clustering = cluster_spec(spec, small_library)
    compat = CompatibilityAnalysis.from_spec(spec)
    arch = Architecture(small_library)
    for name in ("ga/c000", "gb/c000"):
        c = clustering.clusters[name]
        pe = arch.new_pe(small_library.pe_type("FPGA"))
        arch.allocate_cluster(name, pe.id, 0, gates=c.area_gates, pins=c.pins)
    assoc = AssociationArray(spec, max_explicit_copies=2)
    priorities = compute_priorities(spec, PriorityContext.pessimistic(small_library))

    def evaluate(candidate):
        return evaluate_architecture(
            spec, assoc, clustering, candidate, priorities,
            boot_time_fn=lambda pe, mode: 0.01,
        )

    return spec, clustering, compat, arch, evaluate


class TestMerge:
    def test_merges_compatible_devices(self, merge_setup):
        spec, clustering, compat, arch, evaluate = merge_setup
        initial = evaluate(arch)
        assert initial.feasible
        outcome = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), initial, evaluate
        )
        assert outcome.merges_accepted == 1
        assert outcome.arch.n_pes == 1
        merged = outcome.arch.programmable_pes()[0]
        assert merged.n_modes == 2
        assert outcome.result.cost < initial.cost

    def test_merge_reduces_merge_potential(self, merge_setup):
        spec, clustering, compat, arch, evaluate = merge_setup
        initial = evaluate(arch)
        before = arch.merge_potential()
        outcome = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), initial, evaluate
        )
        assert outcome.arch.merge_potential() < before

    def test_incompatible_devices_not_merged(self, small_library):
        spec = SystemSpec(
            "s",
            [hw_graph("ga", est=0.0), hw_graph("gb", est=0.0)],
            compatibility=[],
        )
        clustering = cluster_spec(spec, small_library)
        compat = CompatibilityAnalysis.from_spec(spec)
        arch = Architecture(small_library)
        for name in ("ga/c000", "gb/c000"):
            c = clustering.clusters[name]
            pe = arch.new_pe(small_library.pe_type("FPGA"))
            arch.allocate_cluster(name, pe.id, 0, gates=c.area_gates, pins=c.pins)
        assoc = AssociationArray(spec, max_explicit_copies=2)
        priorities = compute_priorities(
            spec, PriorityContext.pessimistic(small_library)
        )

        def evaluate(candidate):
            return evaluate_architecture(
                spec, assoc, clustering, candidate, priorities
            )

        initial = evaluate(arch)
        outcome = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), initial, evaluate
        )
        assert outcome.merges_accepted == 0
        assert outcome.arch.n_pes == 2

    def test_requires_feasible_start(self, merge_setup, small_library):
        spec, clustering, compat, arch, evaluate = merge_setup
        initial = evaluate(arch)
        initial.report.lateness[("ga", 0, "ga.t")] = 1.0  # fake a miss
        with pytest.raises(AllocationError):
            merge_reconfigurable_pes(
                spec, clustering, compat, DelayPolicy(), initial, evaluate
            )

    def test_evaluator_returning_none_rejects(self, merge_setup):
        spec, clustering, compat, arch, evaluate = merge_setup
        initial = evaluate(arch)
        calls = {"n": 0}

        def broken(candidate):
            calls["n"] += 1
            return None

        outcome = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), initial, broken
        )
        assert outcome.merges_accepted == 0
        assert calls["n"] >= 1
