"""The on-disk campaign directory: spec, checkpoint log, manifest.

Layout (see :mod:`repro.io.campaign_json` for the byte-level
contracts)::

    <campaign dir>/
      campaign.json   # the canonical CampaignSpec; written by `run`
      jobs.jsonl      # append-only terminal job records (fsync/line)
      events.jsonl    # obs event stream of the latest run/resume
      manifest.json   # canonical final aggregate; only when complete
      table.txt       # human-readable rendering of the manifest

The checkpoint log is the resume contract: a record is written only
when a job reaches a *terminal* state (``done`` or ``failed`` after
retry exhaustion), and the write is flushed and fsynced before the
runner moves on, so a killed campaign loses at most in-flight work.
On load, the last record per job id wins -- a job that failed in one
invocation and succeeded on resume is superseded by its ``done``
record.  A kill landing *inside* a write leaves a newline-less
partial tail: readers drop it, and the first append of the next
invocation truncates it first so the log never fuses the fragment
with a fresh record into a corrupt line.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Dict, Optional, Union

from repro.errors import SpecificationError
from repro.io.campaign_json import (
    CAMPAIGN_SCHEMA_VERSION,
    append_jsonl,
    canonical_dumps,
    dump_canonical,
    load_json,
    read_jsonl,
)
from repro.io.spec_json import read_json_file
from repro.campaign.grid import CampaignSpec

#: Terminal job statuses recorded in the checkpoint log.
TERMINAL_STATUSES = ("done", "failed")


class CampaignDir:
    """Owns one campaign directory's files and invariants."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        """Bind to ``root`` (created lazily by :meth:`write_spec`)."""
        self.root = pathlib.Path(root)
        self._log_fh = None

    # -- paths ---------------------------------------------------------
    @property
    def spec_path(self) -> pathlib.Path:
        """``campaign.json``."""
        return self.root / "campaign.json"

    @property
    def log_path(self) -> pathlib.Path:
        """``jobs.jsonl`` (the checkpoint log)."""
        return self.root / "jobs.jsonl"

    @property
    def events_path(self) -> pathlib.Path:
        """``events.jsonl`` (the obs stream of the latest invocation)."""
        return self.root / "events.jsonl"

    @property
    def manifest_path(self) -> pathlib.Path:
        """``manifest.json``."""
        return self.root / "manifest.json"

    @property
    def table_path(self) -> pathlib.Path:
        """``table.txt``."""
        return self.root / "table.txt"

    # -- spec ----------------------------------------------------------
    def write_spec(self, spec: CampaignSpec) -> None:
        """Persist the campaign spec, creating the directory.

        Refuses to overwrite a *different* spec: two campaigns must
        not share a directory, and ``resume`` relies on the stored
        spec being the one that produced the checkpoint log.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        new_bytes = canonical_dumps(spec.to_dict())
        if self.spec_path.exists():
            old_bytes = self.spec_path.read_text()
            if old_bytes != new_bytes:
                raise SpecificationError(
                    "%s already holds a different campaign; use a fresh "
                    "--dir or `repro campaign resume`" % (self.root,)
                )
            return
        dump_canonical(spec.to_dict(), self.spec_path)

    def load_spec(self) -> CampaignSpec:
        """Load the stored campaign spec."""
        if not self.spec_path.exists():
            raise SpecificationError(
                "%s is not a campaign directory (no campaign.json)"
                % (self.root,)
            )
        return CampaignSpec.from_dict(read_json_file(self.spec_path))

    # -- checkpoint log ------------------------------------------------
    def append_record(self, record: Dict[str, Any]) -> None:
        """Durably append one terminal job record."""
        if record.get("status") not in TERMINAL_STATUSES:
            raise ValueError(
                "checkpoint records must be terminal, got %r"
                % (record.get("status"),)
            )
        if self._log_fh is None:
            self._repair_partial_tail()
            self._log_fh = open(self.log_path, "a")
        append_jsonl(self._log_fh, dict(record, v=CAMPAIGN_SCHEMA_VERSION))

    def _repair_partial_tail(self) -> None:
        """Truncate a partial trailing line left by a mid-write kill.

        :func:`~repro.io.campaign_json.read_jsonl` tolerates a
        partial tail on load, but appending directly after it would
        fuse the fragment and the next record into one malformed line
        *followed by* valid ones -- the shape ``read_jsonl`` rejects
        as corruption -- so the tail is cut back to the last complete
        line before the log is reopened for append.
        """
        if not self.log_path.exists():
            return
        with open(self.log_path, "rb+") as fh:
            data = fh.read()
            if not data or data.endswith(b"\n"):
                return
            fh.truncate(data.rfind(b"\n") + 1)
            fh.flush()
            os.fsync(fh.fileno())

    def load_records(self) -> Dict[str, Dict[str, Any]]:
        """The last terminal record per job id (empty if no log)."""
        if not self.log_path.exists():
            return {}
        records: Dict[str, Dict[str, Any]] = {}
        for record in read_jsonl(self.log_path):
            job = record.get("job")
            if job is not None and record.get("status") in TERMINAL_STATUSES:
                records[job] = record
        return records

    def close(self) -> None:
        """Close the checkpoint log handle (safe to call twice)."""
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    # -- manifest ------------------------------------------------------
    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        """Atomically write the canonical final manifest."""
        dump_canonical(manifest, self.manifest_path)

    def load_manifest(self) -> Optional[Dict[str, Any]]:
        """The final manifest, or None while the campaign is unfinished."""
        if not self.manifest_path.exists():
            return None
        return load_json(self.manifest_path)
