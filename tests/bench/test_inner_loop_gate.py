"""The inner-loop gate judges the median of repeated runs.

``benchmarks/bench_inner_loop.py --repeats N`` keeps the median run of
each example: its record is written and judged against the baseline,
and lists every run's timings.  These cases pin that choice on
hand-made records, without timing anything.
"""

import importlib.util
import pathlib

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
          / "benchmarks" / "bench_inner_loop.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_inner_loop", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(bench, speedup, pruned=1.0, identical=True):
    record = dict(bench.RECORD_SCHEMA)
    record.update(example="A1TR", scale=0.05, speedup=speedup,
                  seconds_pruned=pruned, identical=identical)
    return record


def test_median_run_keeps_the_middle_speedup_and_lists_every_run(bench):
    runs = [_record(bench, 3.92, 0.9), _record(bench, 2.59, 1.4),
            _record(bench, 3.04, 1.2)]
    median = bench.median_run(runs)
    assert median["speedup"] == 3.04
    assert median["seconds_pruned"] == 1.2
    assert [run["speedup"] for run in median["runs"]] == [3.92, 2.59, 3.04]
    assert set(median["runs"][0]) == set(bench.RUN_KEYS)
    assert set(median) == set(bench.RECORD_SCHEMA)


def test_one_slow_run_no_longer_fails_the_gate(bench, tmp_path):
    """A lone 2.30x run falls below the 2.42x floor (a 3.221x
    baseline less 25 %); judged as the median of three with two
    ordinary runs, the same run passes."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        '{"records": [{"example": "A1TR", "scale": 0.05, "speedup": 3.221}]}'
    )
    slow = _record(bench, 2.30)
    assert bench.check_regression([slow], baseline, 0.25)
    runs = [slow, _record(bench, 3.10), _record(bench, 2.95)]
    assert bench.check_regression([bench.median_run(runs)], baseline, 0.25) == []


def test_median_run_is_identical_only_if_every_run_was(bench):
    runs = [_record(bench, 3.0), _record(bench, 3.1, identical=False),
            _record(bench, 2.9)]
    assert bench.median_run(runs)["identical"] is False


def test_skip_scratch_runs_rank_by_pruned_seconds(bench):
    runs = [_record(bench, None, pruned) for pruned in (1.5, 1.1, 1.3)]
    median = bench.median_run(runs)
    assert median["seconds_pruned"] == 1.3
    assert [run["seconds_pruned"] for run in median["runs"]] == [1.5, 1.1, 1.3]
