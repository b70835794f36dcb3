"""Campaign checkpoint and manifest serialization.

The campaign runner (:mod:`repro.campaign`) persists three kinds of
artifacts under a campaign directory, all built from the helpers here:

``campaign.json``
    The expanded campaign specification, written once by
    ``repro campaign run`` and required unchanged by ``resume``.
    Canonical JSON (see :func:`canonical_dumps`).
``jobs.jsonl``
    The append-only checkpoint log: one compact JSON object per
    *terminal* job record (``done`` or ``failed``), flushed and
    fsynced per line so a killed campaign loses at most the job it
    was writing.  Readers tolerate a trailing partial line (the
    signature of a mid-write kill) and take the *last* record per job
    id, so a failed job that later succeeds on resume is superseded.
``manifest.json``
    The final aggregate, written atomically only once every job is
    terminal.  Canonical JSON restricted to deterministic fields
    (no wall-clock times, no attempt counts), so an interrupted
    campaign that is resumed produces a manifest byte-identical to an
    uninterrupted run.

Canonical form means: keys sorted, two-space indent, fixed
separators, ASCII-only, single trailing newline.  Two semantically
equal payloads always serialize to the same bytes, which is what the
resume-determinism acceptance test compares.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import IO, Any, Dict, List, Union

#: Schema version stamped into campaign.json, jobs.jsonl records and
#: manifest.json; bumped only when a key changes meaning.
CAMPAIGN_SCHEMA_VERSION = 1

PathLike = Union[str, pathlib.Path]


def canonical_dumps(payload: Any) -> str:
    """Serialize ``payload`` to canonical JSON text.

    Sorted keys, two-space indent, fixed separators and a trailing
    newline: equal payloads yield identical bytes.
    """
    return (
        json.dumps(
            payload,
            sort_keys=True,
            indent=2,
            separators=(",", ": "),
            ensure_ascii=True,
        )
        + "\n"
    )


def write_atomic(path: PathLike, data: bytes, durable: bool = True) -> None:
    """Atomic write: temp file (+ fsync when durable) + ``os.replace``.

    Readers never observe a half-written file.  The temp file is a
    sibling suffixed with the writer's pid, so concurrent writers
    (racing campaign or service workers) never share one; whoever
    replaces last wins.  ``durable=False`` skips the fsync: atomicity
    then comes from the rename alone, and a crash can leave a
    truncated file, which only callers with corrupt-tolerant readers
    may accept.  A failed write unlinks its temp file.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp.%d" % os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def dump_canonical(payload: Any, path: PathLike) -> None:
    """Atomically and durably write ``payload`` as canonical JSON to
    ``path`` (serialized first, so an unserializable payload touches
    no file)."""
    write_atomic(path, canonical_dumps(payload).encode("ascii"))


def load_json(path: PathLike) -> Any:
    """Load one JSON document from ``path``."""
    with open(path) as fh:
        return json.load(fh)


def append_jsonl(fh: IO[str], payload: Dict[str, Any]) -> None:
    """Append one compact JSON line to an open log and fsync it.

    The flush + fsync per record is the durability contract of the
    checkpoint log: once this returns, the record survives a kill.
    """
    fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    fh.write("\n")
    fh.flush()
    os.fsync(fh.fileno())


def read_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Read every complete record of a JSON-lines checkpoint log.

    A trailing line that does not parse (a mid-write kill) is
    silently dropped; a malformed line *followed by* valid ones is a
    corrupt log and raises ``ValueError``.
    """
    records: List[Dict[str, Any]] = []
    bad_at = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if bad_at >= 0:
                    raise ValueError(
                        "%s: corrupt checkpoint line %d" % (path, bad_at + 1)
                    )
                bad_at = lineno
                continue
            if bad_at >= 0:
                raise ValueError(
                    "%s: corrupt checkpoint line %d" % (path, bad_at + 1)
                )
    return records
