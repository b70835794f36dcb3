"""The staged pipeline: step order and gates, cluster orders, merge rule."""

import pytest

from repro import CrusadeConfig, SystemSpec, Task, TaskGraph, Tracer, crusade
from repro.core.stages import SynthesisContext
from repro.errors import SpecificationError
from repro.graph.task import MemoryRequirement
from repro.obs import MemorySink
from repro.obs.report import PIPELINE_STAGE_ORDER


def _hopeless_spec():
    """One task whose execution time alone exceeds its deadline, so
    the full check misses and repair runs (and cannot help)."""
    g = TaskGraph(name="hopeless", period=0.1, deadline=0.005)
    g.add_task(Task(name="t", exec_times={"CPU": 0.02},
                    memory=MemoryRequirement(program=64)))
    return SystemSpec("hopeless-sys", [g])


class TestStageRunner:
    def test_default_pipeline_order_matches_figure5(self, small_library):
        """Phases open in Figure 5 order.  Nothing here is feasible, so
        every gate opens: repair runs, the merge produces no plan and
        interface runs, and route (b)'s baseline pass (donated
        clustering, reconfiguration off) nests inside ``merge``."""
        sink = MemorySink()
        result = crusade(_hopeless_spec(), library=small_library,
                         tracer=Tracer(sinks=[sink]))
        assert not result.feasible
        phases = [e.fields["phase"] for e in sink.named("phase.start")]
        figure5 = list(PIPELINE_STAGE_ORDER[:-1])
        assert figure5 == [
            "preprocess", "clustering", "allocation", "full_check",
            "repair", "merge", "interface",
        ]
        nested = ["preprocess", "allocation", "full_check", "repair",
                  "interface"]
        assert phases == figure5[:6] + nested + figure5[6:]

    def test_crusade_emits_stage_counters(self, small_library, tiny_spec):
        tracer = Tracer()
        result = crusade(
            tiny_spec,
            library=small_library,
            config=CrusadeConfig(reconfiguration=False),
            tracer=tracer,
        )
        assert result.feasible
        counters = tracer.counters.as_dict()
        ran = ("preprocess", "clustering", "allocation", "full_check",
               "interface")
        for name in ran + ("finalize",):
            assert counters["stage.%s.runs" % name] == 1
        # Reconfiguration off: the merge step must be gated out, and a
        # feasible full check gates repair out.
        assert counters["stage.merge.skipped"] == 1
        assert counters["stage.repair.skipped"] == 1
        # Phase timers hold exactly the steps that ran; finalize is
        # counted but unphased.
        assert set(tracer.timers.as_dict()) == set(ran)

    def test_donated_clustering_skips_the_clustering_step(
        self, small_library, tiny_spec
    ):
        from repro.cluster.clustering import cluster_spec

        tracer = Tracer()
        crusade(
            tiny_spec,
            library=small_library,
            config=CrusadeConfig(reconfiguration=False),
            clustering=cluster_spec(tiny_spec, small_library),
            tracer=tracer,
        )
        counters = tracer.counters.as_dict()
        assert counters["stage.clustering.skipped"] == 1
        assert "stage.clustering.runs" not in counters
        assert "clustering" not in tracer.timers.as_dict()

    def test_merge_plan_skips_the_interface_step(self, synthetic_spec):
        """A reconfiguration run whose merge kept a route already has
        its interface plan; only the nested baseline (reconfiguration
        off) runs the interface step."""
        tracer = Tracer()
        result = crusade(
            synthetic_spec, config=CrusadeConfig(max_explicit_copies=2),
            tracer=tracer,
        )
        assert result.interface is not None
        counters = tracer.counters.as_dict()
        assert counters["stage.merge.runs"] == 1
        assert counters["stage.interface.skipped"] == 1
        assert counters["stage.interface.runs"] == 1


class TestPolicyRegistry:
    """``CrusadeConfig.policy`` is a closed set of cluster orders."""

    def test_unknown_policy_raises_with_known_names(self):
        for name in ("no-such-policy", "reuse-first"):
            with pytest.raises(SpecificationError) as info:
                CrusadeConfig(policy=name)
            assert "default" in str(info.value)
            assert "largest-first" in str(info.value)


class TestPolicyHooks:
    """The two cluster allocation orders."""

    def test_largest_first_orders_clusters_by_size(self, synthetic_spec):
        from repro.cluster.clustering import CLUSTER_ORDERS, cluster_spec
        from repro.cluster.priority import PriorityContext
        from repro.resources.catalog import default_library

        library = default_library()
        clustering = cluster_spec(
            synthetic_spec, library,
            context=PriorityContext.pessimistic(library),
        )
        assert sorted(CLUSTER_ORDERS) == ["default", "largest-first"]
        assert CLUSTER_ORDERS["default"](clustering) \
            == clustering.ordered_by_priority()
        order = CLUSTER_ORDERS["largest-first"](clustering)
        sizes = [c.size for c in order]
        assert sizes == sorted(sizes, reverse=True)
        assert {c.name for c in order} == set(clustering.clusters)

    def test_policy_variants_synthesize_valid_results(self, synthetic_spec):
        """The non-default order explores a different allocation but
        must still produce a deadline-feasible architecture here."""
        result = crusade(
            synthetic_spec,
            config=CrusadeConfig(
                max_explicit_copies=2, reconfiguration=False,
                policy="largest-first",
            ),
        )
        assert result.feasible

    def test_default_policy_matches_unset(self, synthetic_spec):
        from repro.io.result_json import canonical_result_json

        config = CrusadeConfig(max_explicit_copies=2, reconfiguration=False)
        named = CrusadeConfig(
            max_explicit_copies=2, reconfiguration=False, policy="default"
        )
        assert canonical_result_json(crusade(synthetic_spec, config=config)) \
            == canonical_result_json(crusade(synthetic_spec, config=named))


class TestMergeRule:
    def test_accepts_the_one_cheaper_merge(self, small_library):
        """Figure 3's rule (every deadline holds, cost strictly falls)
        accepts exactly one merge on the canonical two-FPGA setup."""
        from repro import DelayPolicy
        from repro.arch.architecture import Architecture
        from repro.cluster.clustering import cluster_spec
        from repro.cluster.priority import PriorityContext
        from repro.core.stages.support import compute_priorities
        from repro.graph.association import AssociationArray
        from repro.reconfig.compatibility import CompatibilityAnalysis
        from repro.reconfig.merge import merge_reconfigurable_pes
        from repro.alloc.evaluate import evaluate_architecture

        def hw_graph(name, est):
            g = TaskGraph(name=name, period=1.0, deadline=0.5, est=est)
            g.add_task(Task(name=name + ".t", exec_times={"FPGA": 1e-3},
                            area_gates=800, pins=10))
            return g

        spec = SystemSpec(
            "s", [hw_graph("ga", est=0.0), hw_graph("gb", est=0.5)],
            compatibility=[("ga", "gb")],
        )
        clustering = cluster_spec(spec, small_library)
        compat = CompatibilityAnalysis.from_spec(spec)
        arch = Architecture(small_library)
        for name in ("ga/c000", "gb/c000"):
            c = clustering.clusters[name]
            pe = arch.new_pe(small_library.pe_type("FPGA"))
            arch.allocate_cluster(
                name, pe.id, 0, gates=c.area_gates, pins=c.pins
            )
        assoc = AssociationArray(spec, max_explicit_copies=2)
        priorities = compute_priorities(
            spec, PriorityContext.pessimistic(small_library)
        )

        def evaluate(candidate):
            return evaluate_architecture(
                spec, assoc, clustering, candidate, priorities,
                boot_time_fn=lambda pe, mode: 0.01,
            )

        initial = evaluate(arch)
        assert initial.feasible
        outcome = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), initial, evaluate,
        )
        assert outcome.merges_accepted == 1
        assert outcome.result.cost < initial.cost


class TestModeMergeBaseline:
    def test_baseline_runs_under_the_callers_config(self, tiny_spec,
                                                    monkeypatch):
        """Route (b)'s reconfiguration-free baseline keeps every knob
        the caller set; only ``reconfiguration`` is turned off."""
        from dataclasses import replace

        from repro.core.stages import pipeline
        from repro.core.stages.modemerge import ensure_baseline

        nested = []

        def fake_synthesize(ctx):
            nested.append(ctx.config)
            return "baseline result"

        monkeypatch.setattr(pipeline, "synthesize", fake_synthesize)
        config = CrusadeConfig(
            fast_threshold_tasks=100, combine_modes=False,
            interface_retries=2, max_explicit_copies=2,
            policy="largest-first", max_existing_options=6,
        )
        ctx = SynthesisContext.begin(tiny_spec, config=config)
        ensure_baseline(ctx)
        assert nested == [replace(config, reconfiguration=False)]
        assert ctx.baseline == "baseline result"
