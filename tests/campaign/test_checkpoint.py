"""Checkpoint durability contracts: JSONL log, canonical JSON, spec lock."""

from __future__ import annotations

import json

import pytest

from repro.errors import SpecificationError
from repro.io.campaign_json import (
    canonical_dumps,
    dump_canonical,
    read_jsonl,
    write_atomic,
)
from repro.campaign import CampaignSpec, RetryPolicy
from repro.campaign.checkpoint import CampaignDir


def _spec(name="t", retries=2):
    return CampaignSpec(
        name=name,
        kind="selftest",
        examples=("a",),
        scales=(0.05,),
        policy=RetryPolicy(retries=retries),
    )


def test_canonical_dumps_is_stable_bytes():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    # key order and formatting are pinned so equality means byte-equality
    assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_dump_canonical_is_atomic_no_tmp_left_behind(tmp_path):
    target = tmp_path / "m.json"
    dump_canonical({"x": 1}, target)
    dump_canonical({"x": 2}, target)  # overwrite via replace
    assert json.loads(target.read_text()) == {"x": 2}
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []


def test_dump_canonical_failure_leaves_no_temp_file(tmp_path):
    """An unserializable payload raises before any file is touched:
    no temp file, and the previous document survives intact."""
    target = tmp_path / "m.json"
    dump_canonical({"x": 1}, target)
    with pytest.raises(TypeError):
        dump_canonical({"x": object()}, target)
    assert list(tmp_path.glob("*.tmp*")) == []
    assert json.loads(target.read_text()) == {"x": 1}


def test_write_atomic_failure_unlinks_its_temp_file(tmp_path):
    """A write that fails after opening its temp file removes it."""
    target = tmp_path / "entry.bin"
    with pytest.raises(TypeError):
        write_atomic(target, "not bytes")
    assert list(tmp_path.iterdir()) == []


def test_read_jsonl_tolerates_a_trailing_partial_line(tmp_path):
    log = tmp_path / "jobs.jsonl"
    log.write_text('{"job": "a", "status": "done"}\n{"job": "b", "sta')
    records = read_jsonl(log)
    assert [r["job"] for r in records] == ["a"]


def test_read_jsonl_rejects_corruption_before_the_tail(tmp_path):
    log = tmp_path / "jobs.jsonl"
    log.write_text('not json at all\n{"job": "a", "status": "done"}\n')
    with pytest.raises(ValueError, match="corrupt"):
        read_jsonl(log)


def test_last_record_per_job_wins(tmp_path):
    cdir = CampaignDir(tmp_path / "c")
    cdir.write_spec(_spec())
    cdir.append_record({"job": "j1", "status": "failed", "error": "boom"})
    cdir.append_record({"job": "j2", "status": "done", "result": {"n": 1}})
    cdir.append_record({"job": "j1", "status": "done", "result": {"n": 2}})
    cdir.close()
    records = cdir.load_records()
    assert records["j1"]["status"] == "done"
    assert records["j1"]["result"] == {"n": 2}
    assert records["j2"]["status"] == "done"


def test_append_after_a_mid_write_kill_repairs_the_partial_tail(tmp_path):
    cdir = CampaignDir(tmp_path / "c")
    cdir.write_spec(_spec())
    cdir.append_record({"job": "j1", "status": "done"})
    cdir.close()
    # a kill mid-write leaves a newline-less fragment at the tail;
    # appending straight after it would fuse fragment and record into
    # one malformed line that read_jsonl rejects as corruption
    with open(cdir.log_path, "a") as fh:
        fh.write('{"job": "j2", "sta')
    resumed = CampaignDir(tmp_path / "c")
    resumed.append_record({"job": "j3", "status": "done"})
    resumed.close()
    assert [r["job"] for r in read_jsonl(resumed.log_path)] == ["j1", "j3"]
    assert set(resumed.load_records()) == {"j1", "j3"}


def test_partial_tail_repair_when_the_fragment_is_the_whole_log(tmp_path):
    cdir = CampaignDir(tmp_path / "c")
    cdir.write_spec(_spec())
    cdir.log_path.write_text('{"job": "j1", "sta')  # no complete line at all
    cdir.append_record({"job": "j2", "status": "done"})
    cdir.close()
    assert [r["job"] for r in read_jsonl(cdir.log_path)] == ["j2"]


def test_append_record_refuses_non_terminal_statuses(tmp_path):
    cdir = CampaignDir(tmp_path / "c")
    cdir.write_spec(_spec())
    with pytest.raises(ValueError, match="terminal"):
        cdir.append_record({"job": "j1", "status": "running"})
    cdir.close()


def test_records_carry_the_schema_version(tmp_path):
    cdir = CampaignDir(tmp_path / "c")
    cdir.write_spec(_spec())
    cdir.append_record({"job": "j1", "status": "done"})
    cdir.close()
    lines = cdir.log_path.read_text().splitlines()
    assert json.loads(lines[0])["v"] == 1


def test_write_spec_refuses_a_different_spec(tmp_path):
    cdir = CampaignDir(tmp_path / "c")
    cdir.write_spec(_spec(name="one"))
    # same spec again is fine (resume path)
    cdir.write_spec(_spec(name="one"))
    with pytest.raises(SpecificationError, match="different campaign"):
        cdir.write_spec(_spec(name="two"))


def test_load_spec_round_trips(tmp_path):
    cdir = CampaignDir(tmp_path / "c")
    spec = _spec(retries=5)
    cdir.write_spec(spec)
    assert cdir.load_spec() == spec


def test_load_spec_requires_a_campaign_directory(tmp_path):
    with pytest.raises(SpecificationError, match="not a campaign directory"):
        CampaignDir(tmp_path / "nowhere").load_spec()


def test_manifest_round_trips_and_is_optional(tmp_path):
    cdir = CampaignDir(tmp_path / "c")
    cdir.write_spec(_spec())
    assert cdir.load_manifest() is None
    manifest = {"summary": {"jobs": 1, "done": 1, "failed": 0}}
    cdir.write_manifest(manifest)
    assert cdir.load_manifest() == manifest
