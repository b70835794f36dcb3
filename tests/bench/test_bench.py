"""Benchmark harness: examples, table renderers, Figure 2."""

from dataclasses import replace

import pytest

from repro import CrusadeConfig, SpecificationError, validate_spec
from repro.bench.examples import EXAMPLE_NAMES, build_example, example_profile
from repro.bench.figure2 import figure2_library, figure2_spec, run_figure2
from repro.bench.runner import pct, render_table
from repro.bench.table1 import ERUF_SWEEP, render_table1, run_table1
from repro.bench.table2 import ComparisonRow, run_table2_row, render_table2
from repro.delay.circuits import UNROUTABLE_AT_FULL


class TestExamples:
    def test_eight_examples_in_paper_order(self):
        assert EXAMPLE_NAMES == [
            "A1TR", "VDRTX", "HROST", "EST189A", "HRXC", "ADMR", "B192G", "NGXM",
        ]

    def test_profiles_match_paper_task_counts(self):
        expected = {
            "A1TR": 1126, "VDRTX": 1634, "HROST": 2645, "EST189A": 3826,
            "HRXC": 4571, "ADMR": 5419, "B192G": 6815, "NGXM": 7416,
        }
        for name, tasks in expected.items():
            assert example_profile(name).total_tasks == tasks

    def test_unknown_example(self):
        with pytest.raises(SpecificationError):
            example_profile("nope")

    def test_build_small_scale(self, library):
        spec = build_example("A1TR", scale=0.05, library=library)
        validate_spec(spec, library)
        assert spec.has_explicit_compatibility
        assert spec.total_tasks > 50

    def test_scale_changes_group_count_not_graph_size(self, library):
        small = build_example("A1TR", scale=0.05, library=library)
        larger = build_example("A1TR", scale=0.4, library=library)
        assert len(larger.graphs) > len(small.graphs)
        mean_small = small.total_tasks / len(small.graphs)
        mean_large = larger.total_tasks / len(larger.graphs)
        assert mean_small == pytest.approx(mean_large, rel=0.25)

    def test_deterministic(self, library):
        a = build_example("VDRTX", scale=0.05, library=library)
        b = build_example("VDRTX", scale=0.05, library=library)
        assert a.graph_names() == b.graph_names()
        assert a.total_tasks == b.total_tasks

    def test_invalid_scale(self):
        with pytest.raises(SpecificationError):
            build_example("A1TR", scale=0.0)


class TestTable1Bench:
    def test_full_sweep_shape(self):
        results = run_table1()
        assert set(results) == set(
            ["cvs1", "cvs2", "xtrs1", "xtrs2", "rnvk", "fcsdp",
             "r2d2p", "cv46", "wamxp", "pewxfm"]
        )
        for name, cells in results.items():
            assert len(cells) == len(ERUF_SWEEP)
            # Zero at the reference column.
            assert cells[0].increase_pct == 0.0
            # Monotone while routable.
            values = [c.increase_pct for c in cells if c.routable]
            assert values == sorted(values)
        unroutable = [
            name for name, cells in results.items() if not cells[-1].routable
        ]
        assert tuple(unroutable) == UNROUTABLE_AT_FULL

    def test_rendering(self):
        text = render_table1(run_table1(circuits=["cvs1", "r2d2p"]))
        assert "Table 1" in text
        assert "cvs1" in text
        assert "Not routable" in text


class TestFigure2Bench:
    def test_specification_matches_paper(self):
        spec = figure2_spec()
        assert spec.graph_names() == ["T1", "T2", "T3"]
        assert spec.compatible("T2", "T3") is True
        assert spec.compatible("T1", "T2") is False
        lib = figure2_library()
        f1, f2 = lib.pe_type("F1"), lib.pe_type("F2")
        # F2 holds all three; F1 only two (under the 70 % cap).
        total = 800 + 700 + 700
        assert f2.pfus * 10 * 0.7 >= total
        assert f1.pfus * 10 * 0.7 < total
        assert f1.pfus * 10 * 0.7 >= 800 + 700

    def test_reconfiguration_wins(self):
        outcome = run_figure2()
        assert outcome.with_reconfig.feasible
        assert outcome.without.feasible
        assert outcome.reconfiguration_wins
        assert outcome.savings_pct > 30.0
        # One F1, two modes, T1 replicated into both.
        ppes = outcome.with_reconfig.arch.programmable_pes()
        assert len(ppes) == 1
        assert ppes[0].pe_type.name == "F1"
        assert ppes[0].n_modes == 2
        assert ppes[0].modes_of_cluster("T1/c000") == (0, 1)
        # The reboot task actually fires at run time.
        assert outcome.with_reconfig.reconfigurations >= 1


class TestTable2Bench:
    @pytest.fixture(scope="class")
    def row(self):
        return run_table2_row("A1TR", scale=0.03)

    def test_both_runs_feasible(self, row):
        assert row.without.feasible
        assert row.with_reconfig.feasible

    def test_savings_non_negative(self, row):
        # Route (b) guards reconfiguration against ever losing.
        assert row.savings_pct >= -1e-9

    def test_rendering(self, row):
        text = render_table2([row])
        assert "Table 2" in text
        assert "A1TR" in text


class TestBaselineConfig:
    """Table 2/3 baselines run under the caller's configuration with
    only ``reconfiguration`` turned off -- every other knob a caller
    sets reaches the baseline run too."""

    CONFIG = CrusadeConfig(
        combine_modes=False, fast_threshold_tasks=100, interface_retries=2,
        max_existing_options=6, policy="largest-first", max_explicit_copies=2,
    )

    @staticmethod
    def _recorder(calls):
        def fake(spec, library=None, config=None, **kwargs):
            calls.append(config)
            return "result"
        return fake

    def test_table2_baseline_keeps_the_callers_knobs(self, monkeypatch,
                                                     tiny_spec):
        import repro.bench.table2 as table2

        calls = []
        monkeypatch.setattr(table2, "crusade", self._recorder(calls))
        run_table2_row("tiny", config=self.CONFIG, spec=tiny_spec)
        assert calls == [replace(self.CONFIG, reconfiguration=False),
                         self.CONFIG]

    def test_table3_baseline_keeps_the_callers_knobs(self, monkeypatch,
                                                     tiny_spec):
        import repro.bench.table3 as table3

        calls = []
        monkeypatch.setattr(table3, "crusade_ft", self._recorder(calls))
        row = table3.run_table3_row("tiny", config=self.CONFIG, spec=tiny_spec)
        assert calls == [replace(self.CONFIG, reconfiguration=False),
                         self.CONFIG]
        # Tables 2 and 3 share one row class.
        assert isinstance(row, ComparisonRow)


class TestRunnerHelpers:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_pct(self):
        assert pct(12.345) == "12.3"
