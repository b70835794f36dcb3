"""Driver internals: the repair loop, route selection, coupled graphs."""

import pytest

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
from repro.cluster.clustering import cluster_spec
from repro.core.stages.support import coupled_graphs
from repro.graph.task import MemoryRequirement


class TestCoupledGraphs:
    def test_shared_pe_couples(self, small_library):
        def graph(name):
            g = TaskGraph(name=name, period=0.1, deadline=0.05)
            g.add_task(Task(name=name + ".t", exec_times={"CPU": 1e-3},
                            memory=MemoryRequirement(program=64)))
            return g

        spec = SystemSpec("s", [graph("a"), graph("b"), graph("c")])
        clustering = cluster_spec(spec, small_library)
        arch = Architecture(small_library)
        cpu1 = arch.new_pe(small_library.pe_type("CPU"))
        cpu2 = arch.new_pe(small_library.pe_type("CPU"))
        arch.allocate_cluster("a/c000", cpu1.id, 0)
        arch.allocate_cluster("b/c000", cpu1.id, 0)
        arch.allocate_cluster("c/c000", cpu2.id, 0)
        assert coupled_graphs(arch, clustering, "a") == ["a", "b"]
        assert coupled_graphs(arch, clustering, "c") == ["c"]

    def test_unallocated_graph_couples_only_itself(self, small_library):
        g = TaskGraph(name="solo", period=0.1, deadline=0.05)
        g.add_task(Task(name="solo.t", exec_times={"CPU": 1e-3},
                        memory=MemoryRequirement(program=64)))
        spec = SystemSpec("s", [g])
        clustering = cluster_spec(spec, small_library)
        arch = Architecture(small_library)
        assert coupled_graphs(arch, clustering, "solo") == ["solo"]


class TestRepair:
    def test_fast_inner_loop_end_state_matches_full(self):
        """The fast inner loop plus repair must converge to a feasible
        system whenever the exhaustive (slow) loop does."""
        spec = generate_spec(GeneratorConfig(
            seed=77, n_graphs=5, tasks_per_graph=10, compat_group_size=2,
            utilization=0.25, hw_only_fraction=0.3, mixed_fraction=0.2,
        ))
        slow = crusade(spec, config=CrusadeConfig(
            reconfiguration=False, fast_inner_loop=False, max_explicit_copies=2))
        fast = crusade(spec, config=CrusadeConfig(
            reconfiguration=False, fast_inner_loop=True, max_explicit_copies=2))
        assert slow.feasible
        assert fast.feasible

    def test_overload_is_repaired(self):
        """A workload dense enough to oversubscribe the first CPU must
        end up spread across resources with utilization <= 1."""
        spec = generate_spec(GeneratorConfig(
            seed=88, n_graphs=6, tasks_per_graph=12, compat_group_size=1,
            utilization=0.5, hw_only_fraction=0.0, mixed_fraction=0.0,
            periods=(0.0512,),
        ))
        result = crusade(spec, config=CrusadeConfig(
            reconfiguration=False, max_explicit_copies=2))
        assert not result.report.overloaded, result.report.overloaded


class TestRouteSelection:
    def test_baseline_donation_used(self, small_library, hw_pair_spec):
        baseline = crusade(
            hw_pair_spec, library=small_library,
            config=CrusadeConfig(reconfiguration=False, max_explicit_copies=2),
        )
        reconfig = crusade(
            hw_pair_spec, library=small_library,
            config=CrusadeConfig(reconfiguration=True, max_explicit_copies=2),
            baseline=baseline,
        )
        assert reconfig.feasible
        assert reconfig.cost <= baseline.cost

    def test_internal_baseline_computed_when_missing(
        self, small_library, hw_pair_spec
    ):
        # Without a donated baseline, route (b) builds its own; the
        # result must still never lose to the reconfiguration-free run.
        reconfig = crusade(
            hw_pair_spec, library=small_library,
            config=CrusadeConfig(reconfiguration=True, max_explicit_copies=2),
        )
        baseline = crusade(
            hw_pair_spec, library=small_library,
            config=CrusadeConfig(reconfiguration=False, max_explicit_copies=2),
        )
        assert reconfig.cost <= baseline.cost + 1e-9

    def test_merge_stats_reported(self, small_library, hw_pair_spec):
        result = crusade(
            hw_pair_spec, library=small_library,
            config=CrusadeConfig(max_explicit_copies=2),
        )
        assert set(result.merge_stats) <= {
            "accepted", "rejected", "mode_combines", "rounds",
        }
