"""CrusadeConfig validation and result reporting units."""

import pytest

from repro import CrusadeConfig, SpecificationError, crusade


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(max_explicit_copies=0),
        dict(max_cluster_size=0),
        dict(max_existing_options=0),
        dict(link_strategies=()),
        dict(interface_retries=-1),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(SpecificationError):
            CrusadeConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(incremental=False),
        dict(timeline="tree"),
    ])
    def test_removed_fields_are_not_accepted(self, kwargs):
        """The evaluation-path and timeline switches are gone: every
        run uses the incremental engine and the production timelines."""
        with pytest.raises(TypeError):
            CrusadeConfig(**kwargs)

    def test_fast_inner_loop_auto(self):
        config = CrusadeConfig(fast_threshold_tasks=100)
        assert not config.use_fast_inner_loop(50)
        assert config.use_fast_inner_loop(150)

    def test_fast_inner_loop_forced(self):
        assert CrusadeConfig(fast_inner_loop=True).use_fast_inner_loop(1)
        assert not CrusadeConfig(fast_inner_loop=False).use_fast_inner_loop(10_000)

    def test_defaults_match_paper(self):
        config = CrusadeConfig()
        assert config.reconfiguration is True
        assert config.clustering is True
        assert config.delay_policy.eruf == 0.70
        assert config.delay_policy.epuf == 0.80
        assert config.preemption is True


class TestResultReporting:
    @pytest.fixture(scope="class")
    def result(self, request):
        from repro import GeneratorConfig, generate_spec

        spec = generate_spec(GeneratorConfig(
            seed=2, n_graphs=2, tasks_per_graph=6, compat_group_size=2,
            utilization=0.2,
        ))
        return crusade(spec, config=CrusadeConfig(max_explicit_copies=2))

    def test_summary_mentions_feasibility(self, result):
        assert "feasible" in result.summary()

    def test_breakdown_sums_to_cost(self, result):
        assert result.breakdown().total == pytest.approx(result.cost)

    def test_counts_consistent(self, result):
        assert result.n_pes == len(result.arch.pes)
        assert result.n_links == len(result.arch.links)
        assert result.n_modes == result.arch.total_modes()

    def test_cpu_seconds_positive(self, result):
        assert result.cpu_seconds > 0
