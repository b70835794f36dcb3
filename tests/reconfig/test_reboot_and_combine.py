"""Reboot-time accounting and post-merge mode combining."""

import pytest

from repro import DelayPolicy, SystemSpec, Task, TaskGraph
from repro.arch.architecture import Architecture
from repro.cluster.clustering import cluster_spec
from repro.cluster.priority import PriorityContext
from repro.core.stages.support import compute_priorities
from repro.graph.association import AssociationArray
from repro.reconfig.compatibility import CompatibilityAnalysis
from repro.reconfig.merge import merge_reconfigurable_pes
from repro.reconfig.reboot import boot_time_for_bits, default_boot_time
from repro.alloc.evaluate import evaluate_architecture


class TestBootTime:
    def test_bits_over_rate(self):
        assert boot_time_for_bits(4_000_000, clock_hz=4e6, width_bits=1) == 1.0
        assert boot_time_for_bits(4_000_000, clock_hz=4e6, width_bits=8) == 0.125

    def test_invalid(self):
        with pytest.raises(ValueError):
            boot_time_for_bits(-1)
        with pytest.raises(ValueError):
            boot_time_for_bits(10, clock_hz=0)

    def test_processor_never_reboots(self, small_library):
        arch = Architecture(small_library)
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        assert default_boot_time(cpu, 0) == 0.0

    def test_single_mode_device_boots_free(self, small_library):
        arch = Architecture(small_library)
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        arch.allocate_cluster("c", fpga.id, 0, gates=500)
        assert default_boot_time(fpga, 0) == 0.0

    def test_multimode_full_reconfig_streams_whole_image(self, small_library):
        arch = Architecture(small_library)
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        fpga.new_mode()
        arch.allocate_cluster("c0", fpga.id, 0, gates=500)
        arch.allocate_cluster("c1", fpga.id, 1, gates=100)
        boot0 = default_boot_time(fpga, 0)
        boot1 = default_boot_time(fpga, 1)
        # Fixture FPGA is full-reconfiguration: both modes stream the
        # complete image regardless of usage.
        assert boot0 == boot1 > 0.0

    def test_partial_reconfig_scales_with_mode_usage(self, library):
        arch = Architecture(library)
        at = arch.new_pe(library.pe_type("AT6005"))  # partial reconfig
        at.new_mode()
        arch.allocate_cluster("big", at.id, 0, gates=5000)
        arch.allocate_cluster("small", at.id, 1, gates=500)
        assert default_boot_time(at, 0) > default_boot_time(at, 1) > 0.0


class TestModeCombining:
    def test_small_modes_combine_after_merge(self, small_library):
        """Two tiny compatible circuits merged into one device should
        end up in ONE mode when they fit together -- Section 4.2's
        final step removes the needless reconfiguration."""
        def graph(name, est):
            g = TaskGraph(name=name, period=1.0, deadline=0.5, est=est)
            g.add_task(Task(name=name + ".t", exec_times={"FPGA": 1e-3},
                            area_gates=200, pins=4))
            return g

        spec = SystemSpec(
            "s", [graph("ga", 0.0), graph("gb", 0.5)],
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
        priorities = compute_priorities(
            spec, PriorityContext.pessimistic(small_library)
        )

        def evaluate(candidate):
            return evaluate_architecture(
                spec, assoc, clustering, candidate, priorities,
                boot_time_fn=lambda pe, mode: 0.01,
            )

        outcome = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), evaluate(arch), evaluate,
            combine_modes=True,
        )
        assert outcome.merges_accepted == 1
        # 200+200 gates fit one mode under the cap: combined.
        assert outcome.mode_combines == 1
        merged = outcome.arch.programmable_pes()[0]
        assert merged.n_modes == 1
        assert outcome.result.schedule.reconfigurations == 0

    def test_combining_disabled(self, small_library):
        def graph(name, est):
            g = TaskGraph(name=name, period=1.0, deadline=0.5, est=est)
            g.add_task(Task(name=name + ".t", exec_times={"FPGA": 1e-3},
                            area_gates=200, pins=4))
            return g

        spec = SystemSpec(
            "s", [graph("ga", 0.0), graph("gb", 0.5)],
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
        priorities = compute_priorities(
            spec, PriorityContext.pessimistic(small_library)
        )

        def evaluate(candidate):
            return evaluate_architecture(
                spec, assoc, clustering, candidate, priorities,
                boot_time_fn=lambda pe, mode: 0.01,
            )

        outcome = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), evaluate(arch), evaluate,
            combine_modes=False,
        )
        assert outcome.mode_combines == 0
        assert outcome.arch.programmable_pes()[0].n_modes == 2
