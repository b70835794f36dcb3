"""The staged pipeline: runner semantics, cluster orders, merge rule."""

import pytest

from repro import CrusadeConfig, Tracer, crusade
from repro.core.stages import (
    Stage,
    SynthesisContext,
    default_stages,
    run_stages,
)
from repro.errors import SpecificationError


class TestStageRunner:
    def test_runs_and_skips_are_counted_and_phased(self, tiny_spec):
        ran = []

        class Always(Stage):
            name = "always"

            def run(self, ctx):
                ran.append(self.name)

        class Never(Stage):
            name = "never"

            def should_run(self, ctx):
                return False

            def run(self, ctx):  # pragma: no cover - must not run
                raise AssertionError("skipped stage must not run")

        class Unphased(Always):
            name = "unphased"

            @property
            def phase_name(self):
                return None

        tracer = Tracer()
        ctx = SynthesisContext.begin(tiny_spec, tracer=tracer)
        out = run_stages(ctx, [Always(), Never(), Unphased()])
        assert out is ctx
        assert ran == ["always", "unphased"]
        counters = tracer.counters.as_dict()
        assert counters["stage.always.runs"] == 1
        assert counters["stage.never.skipped"] == 1
        assert counters["stage.unphased.runs"] == 1
        assert "always" in tracer.timers.as_dict()
        assert "unphased" not in tracer.timers.as_dict()

    def test_default_pipeline_order_matches_figure5(self):
        assert [s.name for s in default_stages()] == [
            "preprocess", "clustering", "allocation", "full_check",
            "repair", "merge", "interface", "finalize",
        ]

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
        for name in ("preprocess", "clustering", "allocation",
                     "full_check", "finalize"):
            assert counters["stage.%s.runs" % name] == 1
        # Reconfiguration off: the merge stage must be gated out, and
        # a feasible full check gates repair out.
        assert counters["stage.merge.skipped"] == 1
        assert counters["stage.repair.skipped"] == 1


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
    def test_accepts_the_one_cheaper_merge_with_and_without_prune(
        self, small_library
    ):
        """Figure 3's rule (every deadline holds, cost strictly falls)
        accepts exactly one merge on the canonical two-FPGA setup, and
        the dollar-cost prune cut does not change that."""
        from repro import DelayPolicy, SystemSpec, Task, TaskGraph
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
        for prune in (False, True):
            outcome = merge_reconfigurable_pes(
                spec, clustering, compat, DelayPolicy(), initial, evaluate,
                prune=prune,
            )
            assert outcome.merges_accepted == 1, prune
            assert outcome.result.cost < initial.cost, prune


class TestModeMergeBaseline:
    def test_baseline_runs_under_the_callers_config(self, tiny_spec,
                                                    monkeypatch):
        """Route (b)'s reconfiguration-free baseline keeps every knob
        the caller set; only ``reconfiguration`` is turned off."""
        from dataclasses import replace

        from repro.core.stages import pipeline
        from repro.core.stages.modemerge import ModeMerge

        nested = []

        def fake_synthesize(ctx):
            nested.append(ctx.config)
            return "baseline result"

        monkeypatch.setattr(pipeline, "synthesize", fake_synthesize)
        config = CrusadeConfig(
            fast_threshold_tasks=100, combine_modes=False,
            interface_retries=2, max_explicit_copies=2,
            policy="largest-first", bound_abort=False,
        )
        ctx = SynthesisContext.begin(tiny_spec, config=config)
        ModeMerge().ensure_baseline(ctx)
        assert nested == [replace(config, reconfiguration=False)]
        assert ctx.baseline == "baseline result"
