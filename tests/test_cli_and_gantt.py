"""CLI commands and Gantt rendering."""

import json

import pytest

from repro import CrusadeConfig, GeneratorConfig, crusade, generate_spec
from repro.cli import main
from repro.io.spec_json import save_spec_file
from repro.sched.gantt import render_gantt, utilization_summary


@pytest.fixture()
def spec_file(tmp_path):
    spec = generate_spec(GeneratorConfig(
        seed=5, n_graphs=3, tasks_per_graph=6, compat_group_size=2,
        utilization=0.2,
    ))
    path = tmp_path / "spec.json"
    save_spec_file(spec, path)
    return path


class TestCli:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main([
            "generate", "--seed", "3", "--graphs", "2",
            "--tasks-per-graph", "5", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "crusade-spec"
        assert len(payload["graphs"]) == 2

    def test_example(self, tmp_path):
        out = tmp_path / "e.json"
        code = main(["example", "A1TR", "--scale", "0.05", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["name"] == "A1TR"

    def test_synthesize(self, spec_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "synthesize", str(spec_file), "--copies", "2",
            "--out", str(out), "--gantt",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Processing elements" in captured
        assert "feasible: True" in captured
        assert json.loads(out.read_text())["feasible"] is True

    def test_synthesize_baseline(self, spec_file, capsys):
        code = main(["synthesize", str(spec_file), "--no-reconfig", "--copies", "2"])
        assert code == 0

    def test_synthesize_cache_dir_round_trip(self, spec_file, tmp_path,
                                             capsys):
        """``--cache-dir`` twice: the resubmission is an exact store
        hit whose export equals the first run's, timing aside."""
        store = tmp_path / "store"
        exports = []
        for name in ("first.json", "hit.json"):
            out = tmp_path / name
            code = main([
                "synthesize", str(spec_file), "--copies", "2", "--stats",
                "--cache-dir", str(store), "--out", str(out),
            ])
            assert code == 0
            exports.append(json.loads(out.read_text()))
        first, hit = exports
        assert hit["stats"]["counters"].get("perf.store.hit") == 1
        assert first["stats"]["counters"].get("perf.store.hit", 0) == 0
        for payload in exports:
            payload.pop("cpu_seconds")
            payload.pop("stats")
        assert hit == first

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-store", "cache-dir"])
    def test_library_error_is_one_line_and_exit_2(self, spec_file, tmp_path,
                                                  capsys, cached):
        """A spec the library refuses (here a cyclic graph) ends in an
        ``error:`` line and exit code 2, not a traceback."""
        payload = json.loads(spec_file.read_text())
        edges = payload["graphs"][0]["edges"]
        edges.append({"src": edges[0]["dst"], "dst": edges[0]["src"],
                      "bytes": 0})
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(json.dumps(payload))
        argv = ["synthesize", str(cyclic)]
        if cached:
            argv += ["--cache-dir", str(tmp_path / "store")]
        assert main(argv) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("error: task graph ")
        assert "contains a cycle" in last

    @pytest.mark.parametrize("command, content, expected", [
        pytest.param(
            "synthesize",
            lambda p: p["graphs"][0]["tasks"][0].pop("exec_times"),
            "malformed document (KeyError: 'exec_times')",
            id="synthesize-task-without-exec-times"),
        pytest.param(
            "synthesize", lambda p: p["graphs"][0].update(tasks="t0"),
            "malformed document (AttributeError: ",
            id="synthesize-tasks-is-a-string"),
        pytest.param("synthesize", None, "No such file or directory",
                     id="synthesize-missing-path"),
        pytest.param("synthesize", "not json", "is not a JSON document",
                     id="synthesize-not-json"),
        pytest.param("submit", None, "No such file or directory",
                     id="submit-missing-path"),
        pytest.param("campaign", None, "No such file or directory",
                     id="campaign-run-missing-spec"),
    ])
    def test_bad_input_file_is_one_line_and_exit_2(
        self, spec_file, tmp_path, capsys, command, content, expected
    ):
        """An input file the CLI cannot use (missing, not JSON, or a
        malformed document) ends in one ``error:`` line naming the
        fault and exit code 2, not a traceback.  ``content`` edits a
        valid spec, replaces the file's text, or (None) leaves no
        file at all."""
        bad = tmp_path / "bad.json"
        if callable(content):
            payload = json.loads(spec_file.read_text())
            content(payload)
            bad.write_text(json.dumps(payload))
        elif content is not None:
            bad.write_text(content)
        argv = {
            "synthesize": ["synthesize", str(bad)],
            "submit": ["submit", str(bad), "--port", "9"],
            "campaign": ["campaign", "run", str(bad),
                         "--dir", str(tmp_path / "c")],
        }[command]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error: ")
        assert expected in line

    def test_synthesize_profile(self, spec_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "synthesize", str(spec_file), "--copies", "2",
            "--profile", "5", "--out", str(out),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "cumulative" in captured
        assert "profile written to" in captured
        dumps = list(tmp_path.glob("profile-*.pstats"))
        assert len(dumps) == 1

    def test_profile_paths_distinct_per_spec(self, spec_file, tmp_path):
        """Two specs profiled into one directory must not collide."""
        from repro.cli import _profile_path
        from repro.io.spec_json import load_spec_file
        from repro.graph.generator import GeneratorConfig, generate_spec

        class Args:
            out = str(tmp_path / "r.json")

        spec_a = load_spec_file(str(spec_file))
        spec_b = generate_spec(GeneratorConfig(seed=7, n_graphs=2,
                                               tasks_per_graph=4))
        path_a = _profile_path(Args, spec_a)
        path_b = _profile_path(Args, spec_b)
        assert path_a != path_b
        assert _profile_path(Args, spec_a) == path_a

    @pytest.mark.parametrize("argv, error", [
        pytest.param(["synthesize", "s.json", "--parallel-eval", "2"],
                     "unrecognized", id="synthesize-parallel-eval"),
        pytest.param(["synthesize", "s.json", "--pool-batch", "1"],
                     "unrecognized", id="synthesize-pool-batch"),
        pytest.param(["synthesize", "s.json", "--exec-transport", "pipe"],
                     "unrecognized", id="synthesize-exec-transport"),
        pytest.param(["synthesize", "s.json", "--worker-port", "0"],
                     "unrecognized", id="synthesize-worker-port"),
        pytest.param(["serve", "--exec-transport", "pipe"],
                     "unrecognized", id="serve-exec-transport"),
        pytest.param(["serve", "--worker-port", "0"],
                     "unrecognized", id="serve-worker-port"),
        pytest.param(["worker", "--connect", "127.0.0.1:9131"],
                     "invalid choice", id="worker"),
        pytest.param(["synthesize", "s.json", "--no-incremental"],
                     "unrecognized", id="synthesize-no-incremental"),
        pytest.param(["synthesize", "s.json", "--timeline", "tree"],
                     "unrecognized", id="synthesize-timeline"),
        pytest.param(["synthesize", "s.json", "--no-prune"],
                     "unrecognized", id="synthesize-no-prune"),
        pytest.param(["synthesize", "s.json", "--no-bound-abort"],
                     "unrecognized", id="synthesize-no-bound-abort"),
        pytest.param(["synthesize", "s.json", "--no-warm-start"],
                     "unrecognized", id="synthesize-no-warm-start"),
    ])
    def test_removed_pool_and_transport_surface_is_rejected(
        self, argv, error, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err

    def test_synthesize_ft(self, spec_file, capsys):
        code = main(["synthesize", str(spec_file), "--ft", "--copies", "2"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "spares:" in captured

    def test_synthesize_stats(self, spec_file, capsys):
        code = main(["synthesize", str(spec_file), "--copies", "2", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Synthesis statistics:" in out
        for phase in ("preprocess", "allocation", "full_check"):
            assert phase in out
        assert "sched.runs" in out
        assert "events emitted:" in out

    def test_synthesize_trace(self, spec_file, tmp_path, capsys):
        from repro.obs.events import ENVELOPE_KEYS, SCHEMA_VERSION

        trace = tmp_path / "trace.jsonl"
        code = main([
            "synthesize", str(spec_file), "--copies", "2",
            "--trace", str(trace),
        ])
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        lines = trace.read_text().strip().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        for event in events:
            assert tuple(event) == ENVELOPE_KEYS
            assert event["v"] == SCHEMA_VERSION
        names = [e["event"] for e in events]
        assert "phase.start" in names
        assert "phase.end" in names
        assert names[-1] == "synthesis.done"
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_synthesize_ft_stats(self, spec_file, capsys):
        code = main([
            "synthesize", str(spec_file), "--ft", "--copies", "2", "--stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ft_transform" in out
        assert "ft_spares" in out

    def test_stats_block_round_trips_through_result_export(
        self, spec_file, tmp_path, capsys
    ):
        from repro.io import stats_from_result_dict

        out = tmp_path / "r.json"
        code = main([
            "synthesize", str(spec_file), "--copies", "2",
            "--stats", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        stats = stats_from_result_dict(payload)
        assert stats is not None
        assert stats.to_dict() == payload["stats"]
        assert stats.phase_total() <= stats.total_seconds
        # Untraced exports carry no stats block at all.
        plain = tmp_path / "plain.json"
        assert main([
            "synthesize", str(spec_file), "--copies", "2", "--out", str(plain),
        ]) == 0
        plain_payload = json.loads(plain.read_text())
        assert "stats" not in plain_payload
        assert stats_from_result_dict(plain_payload) is None

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Not routable" in capsys.readouterr().out

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "savings" in out


class TestGantt:
    @pytest.fixture(scope="class")
    def result(self):
        spec = generate_spec(GeneratorConfig(
            seed=5, n_graphs=3, tasks_per_graph=6, compat_group_size=2,
            utilization=0.2,
        ))
        return crusade(spec, config=CrusadeConfig(max_explicit_copies=2))

    def test_rows_per_resource(self, result):
        chart = render_gantt(result.schedule, width=60)
        lines = chart.splitlines()
        assert lines[0].startswith("time [")
        resources = {p.pe_id for p in result.schedule.tasks.values() if p.pe_id}
        body = "\n".join(lines[1:])
        for resource in resources:
            assert resource in body

    def test_execution_marks_present(self, result):
        chart = render_gantt(result.schedule, width=60)
        assert "#" in chart

    def test_width_enforced(self, result):
        with pytest.raises(ValueError):
            render_gantt(result.schedule, width=3)
        chart = render_gantt(result.schedule, width=40)
        for line in chart.splitlines()[1:]:
            bar = line.split("|")[1]
            assert len(bar) == 40

    def test_custom_span(self, result):
        chart = render_gantt(result.schedule, width=40, span=(0.0, 0.001))
        assert "0.001000s" in chart

    def test_all_copies(self, result):
        chart = render_gantt(result.schedule, width=40, copy=None)
        assert "#" in chart

    def test_empty_schedule(self):
        from repro.sched.scheduler import Schedule

        assert render_gantt(Schedule()) == "(empty schedule)"

    def test_utilization_summary(self, result):
        from repro import hyperperiod_of

        text = utilization_summary(
            result.schedule, hyperperiod_of(result.spec)
        )
        assert "%" in text
        assert "resource utilization" in text
