"""The ``repro campaign run/resume/status`` CLI surface and exit codes."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import SpecificationError
from repro.exec import SupervisedWorker
from repro.io.campaign_json import dump_canonical
from repro.campaign import CampaignSpec, RetryPolicy, run_campaign
from repro.campaign.checkpoint import CampaignDir
from repro.campaign.grid import job_id


def _selftest_spec_file(tmp_path, inject=None, retries=0):
    params = {}
    if inject:
        params["jobs"] = {
            job_id("selftest", ex, 0.05, "default"): {"inject": dict(m)}
            for ex, m in inject.items()
        }
    spec = CampaignSpec(
        name="cli",
        kind="selftest",
        examples=("a", "b", "c"),
        scales=(0.05,),
        policy=RetryPolicy(retries=retries, backoff_s=0.0, backoff_cap_s=0.0),
        params=params,
    )
    path = tmp_path / "spec.json"
    dump_canonical(spec.to_dict(), path)
    return path


def test_run_from_spec_file_exits_zero_when_clean(tmp_path, capsys):
    spec_path = _selftest_spec_file(tmp_path)
    code = main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign complete: 3 done, 0 failed" in out
    assert "manifest written to" in out
    assert (tmp_path / "c" / "manifest.json").exists()


def test_run_exits_one_when_jobs_failed(tmp_path, capsys):
    spec_path = _selftest_spec_file(
        tmp_path, inject={"a": {"error_attempts": 99}}
    )
    code = main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
    ])
    assert code == 1
    assert "1 failed" in capsys.readouterr().out


def test_interrupted_run_exits_three_then_resume_completes(tmp_path, capsys):
    spec_path = _selftest_spec_file(tmp_path)
    code = main([
        "campaign", "run", str(spec_path),
        "--dir", str(tmp_path / "c"), "--stop-after", "1",
    ])
    assert code == 3
    assert "INTERRUPTED" in capsys.readouterr().out

    code = main(["campaign", "status", str(tmp_path / "c")])
    assert code == 3
    out = capsys.readouterr().out
    assert "3 jobs, 1 done, 0 failed, 2 pending" in out
    assert "pending selftest:" in out

    code = main(["campaign", "resume", str(tmp_path / "c")])
    assert code == 0
    assert "campaign complete" in capsys.readouterr().out

    code = main(["campaign", "status", str(tmp_path / "c")])
    assert code == 0
    assert "[complete]" in capsys.readouterr().out


def test_status_lists_failed_jobs_with_error_summaries(tmp_path, capsys):
    spec_path = _selftest_spec_file(
        tmp_path, inject={"b": {"error_attempts": 99}}
    )
    main(["campaign", "run", str(spec_path), "--dir", str(tmp_path / "c")])
    capsys.readouterr()
    code = main(["campaign", "status", str(tmp_path / "c")])
    assert code == 1  # complete with failed jobs: mirror run/resume
    out = capsys.readouterr().out
    assert "FAILED selftest:b@0.05:default: RuntimeError" in out


def test_status_exit_code_agrees_with_the_run_that_produced_it(tmp_path, capsys):
    """A poller scripting ``status`` must see the same verdict ``run``
    reported: 1 for complete-with-failures, 0 only when clean."""
    spec_path = _selftest_spec_file(
        tmp_path, inject={"b": {"error_attempts": 99}}
    )
    run_code = main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
    ])
    capsys.readouterr()
    status_code = main(["campaign", "status", str(tmp_path / "c")])
    assert run_code == status_code == 1


def test_resume_keep_failed_skips_failed_jobs(tmp_path, capsys):
    spec_path = _selftest_spec_file(
        tmp_path, inject={"b": {"error_attempts": 99}}
    )
    main(["campaign", "run", str(spec_path), "--dir", str(tmp_path / "c")])
    capsys.readouterr()
    code = main(["campaign", "resume", str(tmp_path / "c"), "--keep-failed"])
    assert code == 1
    assert "3 skipped" in capsys.readouterr().out


def test_flag_built_campaign_without_examples_is_an_error(tmp_path, capsys):
    code = main(["campaign", "run", "--dir", str(tmp_path / "c")])
    assert code == 2
    assert "need a spec file or --examples" in capsys.readouterr().err


def test_flag_built_selftest_campaign_runs(tmp_path, capsys):
    code = main([
        "campaign", "run", "--dir", str(tmp_path / "c"),
        "--kind", "selftest", "--examples", "x", "y",
        "--scales", "0.05", "--variants", "default", "largest-first",
        "--workers", "2",
    ])
    assert code == 0
    spec = CampaignDir(tmp_path / "c").load_spec()
    assert spec.name == "c"  # defaults to the directory basename
    assert spec.examples == ("x", "y")
    assert [v.name for v in spec.variants] == ["default", "largest-first"]
    manifest = json.loads(
        (tmp_path / "c" / "manifest.json").read_text()
    )
    assert manifest["summary"] == {"jobs": 4, "done": 4, "failed": 0}


def test_run_flags_override_the_spec_policy(tmp_path):
    spec_path = _selftest_spec_file(tmp_path)
    main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
        "--retries", "5", "--timeout", "9.5",
    ])
    stored = CampaignDir(tmp_path / "c").load_spec()
    assert stored.policy.retries == 5
    assert stored.policy.timeout_s == 9.5


@pytest.mark.parametrize("command", ["status", "resume"])
def test_campaign_json_that_is_not_json_is_one_line_and_exit_2(
    tmp_path, capsys, command
):
    """A campaign directory whose ``campaign.json`` is not JSON ends in
    one ``error:`` line naming the file and exit code 2, not a
    traceback."""
    cdir = tmp_path / "c"
    cdir.mkdir()
    (cdir / "campaign.json").write_text("not json")
    assert main(["campaign", command, str(cdir)]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: ")
    assert "campaign.json is not a JSON document" in line


def test_cache_dir_fills_the_store_and_leaves_the_manifest_alone(
    tmp_path, capsys
):
    """``--cache-dir`` reaches the workers in their job configs: the
    store's results tier fills, the manifest is byte-identical to the
    same campaign's without a store, and the environment is
    unchanged."""
    flags = [
        "--name", "store", "--kind", "table2", "--examples", "A1TR",
        "--scales", "0.03",
    ]
    environment = dict(os.environ)
    store = tmp_path / "store"
    assert main([
        "campaign", "run", "--dir", str(tmp_path / "with"),
        "--cache-dir", str(store),
    ] + flags) == 0
    assert dict(os.environ) == environment
    assert list((store / "results").iterdir())
    assert main(["campaign", "run", "--dir", str(tmp_path / "without")]
                + flags) == 0
    assert (tmp_path / "with" / "manifest.json").read_bytes() == (
        tmp_path / "without" / "manifest.json"
    ).read_bytes()


def test_resume_hands_the_store_to_dispatched_jobs_only(
    tmp_path, monkeypatch
):
    """``campaign resume --cache-dir`` adds the directory to the config
    of each payload it dispatches; the stored spec does not name it."""
    spec_path = _selftest_spec_file(tmp_path)
    assert main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
        "--stop-after", "1",
    ]) == 3
    payloads = []
    real_submit = SupervisedWorker.submit

    def spy(self, job, attempt, payload):
        payloads.append(payload)
        return real_submit(self, job, attempt, payload)

    monkeypatch.setattr(SupervisedWorker, "submit", spy)
    store = tmp_path / "store"
    assert main([
        "campaign", "resume", str(tmp_path / "c"), "--cache-dir", str(store),
    ]) == 0
    assert payloads
    for payload in payloads:
        assert payload["config"] == {"cache_dir": str(store)}
    stored = json.loads((tmp_path / "c" / "campaign.json").read_text())
    assert "cache_dir" not in json.dumps(stored)


REFUSED_COUNTS = [
    (["--workers", "0"], "workers must be at least 1"),
    (["--workers", "-3"], "workers must be at least 1"),
    (["--stop-after", "0"], "stop_after must be at least 1"),
    (["--stop-after", "-1"], "stop_after must be at least 1"),
]


@pytest.mark.parametrize(
    "flags, message", REFUSED_COUNTS,
    ids=[" ".join(flags) for flags, _ in REFUSED_COUNTS],
)
@pytest.mark.parametrize("command", ["run", "resume"])
def test_campaign_refuses_counts_below_one(
    tmp_path, capsys, monkeypatch, command, flags, message
):
    """A worker or stop count below 1 is one ``error:`` line and exit
    2, before any job is dispatched or any file written."""
    spec_path = _selftest_spec_file(tmp_path)
    cdir = tmp_path / "c"
    if command == "resume":
        assert main([
            "campaign", "run", str(spec_path), "--dir", str(cdir),
            "--stop-after", "1",
        ]) == 3
        argv = ["campaign", "resume", str(cdir)]
    else:
        argv = ["campaign", "run", str(spec_path), "--dir", str(cdir)]
    capsys.readouterr()
    files = sorted(cdir.rglob("*")) if cdir.exists() else []

    def must_not_run(*args, **kwargs):
        raise AssertionError("a job was dispatched")

    monkeypatch.setattr(SupervisedWorker, "submit", must_not_run)
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert (sorted(cdir.rglob("*")) if cdir.exists() else []) == files


@pytest.mark.parametrize("kwargs", [
    {"workers": 0}, {"workers": -3}, {"stop_after": 0}, {"stop_after": -1},
])
def test_run_campaign_refuses_counts_below_one(tmp_path, kwargs):
    spec = CampaignSpec(
        name="counts", kind="selftest", examples=("a",), scales=(0.05,),
    )
    with pytest.raises(SpecificationError):
        run_campaign(tmp_path / "c", spec=spec, **kwargs)
    assert not (tmp_path / "c").exists()
