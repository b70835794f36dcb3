"""Timeline operation trace recording (``REPRO_TIMELINE_TRACE``).

The differential oracle in ``tests/sched/oracle.py`` proves the
timeline implementations interchangeable on randomized operation
sequences -- but random sequences only approximate the distribution a
real synthesis produces (bursts of same-resource occupies, ready
times that revisit earlier gaps, mode joins dominating inserts).
This module captures the *real* thing once: set
``REPRO_TIMELINE_TRACE=/path/ops.jsonl`` and every timeline the
scheduler builds is wrapped in a recording proxy that appends
one JSON line per operation.  The capture can then be replayed --
``tests/sched/oracle.py::replay_trace`` -- against every registered
implementation simultaneously, turning one NGXM run into a permanent
deterministic regression case (see ``tests/sched/traces/``).

Recording wraps the timeline factories of
:class:`repro.perf.fastsched.SchedulerContext`, which builds every
timeline a synthesis schedules onto.  Proxies delegate everything
and record only the scheduler-facing mutations and queries, so a
traced run still produces byte-identical results; tracing costs one
dict + file append per operation, which is why it hides behind an
environment variable instead of a config knob.

``REPRO_TIMELINE_TRACE_LIMIT`` caps the recorded operation count
(default 500000 -- about 60 MB of JSONL, gzipping ~20x) so tracing a
full-scale run cannot fill a disk; the cap drops later operations,
keeping the prefix every implementation must still agree on.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

#: Environment variable naming the JSONL file to append operations to.
TRACE_ENV = "REPRO_TIMELINE_TRACE"

#: Environment variable capping recorded operations (int, default
#: :data:`DEFAULT_TRACE_LIMIT`).
TRACE_LIMIT_ENV = "REPRO_TIMELINE_TRACE_LIMIT"

#: Default operation cap per recorder.
DEFAULT_TRACE_LIMIT = 500_000


def trace_path() -> Optional[str]:
    """The ``REPRO_TIMELINE_TRACE`` target path, or None when unset."""
    value = os.environ.get(TRACE_ENV, "").strip()
    return value or None


def _jsonable(value: Any) -> Any:
    """Round-trippable JSON encoding of an op argument (tuples become
    lists; replay re-tuples them)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class TimelineRecorder:
    """Appends timeline operations to a JSONL file, thread-safely.

    One recorder serves every timeline of one scheduler context; each
    wrapped timeline gets a serial id so replay can reconstruct the
    per-resource operation streams.
    """

    def __init__(self, path: str, limit: Optional[int] = None) -> None:
        """Open ``path`` for appending, recording at most ``limit``
        operations (``REPRO_TIMELINE_TRACE_LIMIT`` or the default)."""
        if limit is None:
            try:
                limit = int(os.environ.get(TRACE_LIMIT_ENV, ""))
            except ValueError:
                limit = DEFAULT_TRACE_LIMIT
        self.limit = limit
        self._lock = threading.Lock()
        self._next_id = 0
        self._count = 0
        self._fh = open(path, "a", encoding="utf-8")
        self._fh.write(json.dumps({"version": 1}) + "\n")

    def _new_id(self, kind: str) -> int:
        with self._lock:
            tl_id = self._next_id
            self._next_id += 1
            self._fh.write(
                json.dumps({"new": tl_id, "kind": kind}) + "\n"
            )
            return tl_id

    def record(self, tl_id: int, op: str, args: List[Any]) -> None:
        """Append one operation, silently dropping past the cap."""
        with self._lock:
            if self._count >= self.limit:
                return
            self._count += 1
            self._fh.write(
                json.dumps(
                    {"t": tl_id, "op": op, "a": [_jsonable(a) for a in args]}
                )
                + "\n"
            )

    def close(self) -> None:
        """Flush and close the trace file."""
        with self._lock:
            self._fh.close()

    # ------------------------------------------------------------------
    def wrap_serial(self, factory):
        """A factory producing recording proxies over ``factory()``."""
        def make() -> "RecordingTimeline":
            return RecordingTimeline(factory(), self)
        return make

    def wrap_ppe(self, factory):
        """A factory producing recording proxies over PPE
        ``factory()`` timelines."""
        def make() -> "RecordingPpeModeTimeline":
            return RecordingPpeModeTimeline(factory(), self)
        return make


class _RecordingBase:
    """Delegating proxy: everything not recorded passes straight
    through to the wrapped timeline."""

    def __init__(self, inner, recorder: TimelineRecorder, kind: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._tl_id = recorder._new_id(kind)

    def __getattr__(self, name: str):
        """Delegate unrecorded attributes/methods to the inner
        timeline (``.intervals``, ``.windows``, reductions...)."""
        return getattr(self._inner, name)

    def __len__(self) -> int:
        """Length of the wrapped timeline."""
        return len(self._inner)


class RecordingTimeline(_RecordingBase):
    """Serial-resource timeline proxy recording the scheduler ops."""

    def __init__(self, inner, recorder: TimelineRecorder) -> None:
        """Wrap ``inner``, registering it with ``recorder``."""
        super().__init__(inner, recorder, "serial")

    def earliest_fit(self, ready: float, duration: float) -> float:
        """Record, then delegate."""
        self._recorder.record(self._tl_id, "earliest_fit", [ready, duration])
        return self._inner.earliest_fit(ready, duration)

    def occupy(self, start: float, duration: float, owner: tuple):
        """Record, then delegate."""
        self._recorder.record(self._tl_id, "occupy", [start, duration, owner])
        return self._inner.occupy(start, duration, owner)

    def split_fit(
        self,
        ready: float,
        duration: float,
        overhead: float,
        max_segments: int = 4,
    ):
        """Record, then delegate."""
        self._recorder.record(
            self._tl_id, "split_fit", [ready, duration, overhead, max_segments]
        )
        return self._inner.split_fit(ready, duration, overhead, max_segments)


class RecordingPpeModeTimeline(_RecordingBase):
    """Programmable-device timeline proxy recording ``place`` calls."""

    def __init__(self, inner, recorder: TimelineRecorder) -> None:
        """Wrap ``inner``, registering it with ``recorder``."""
        super().__init__(inner, recorder, "ppe")

    @property
    def windows(self):
        """The wrapped timeline's mode windows (consumers index it)."""
        return self._inner.windows

    def place(
        self,
        mode: int,
        ready: float,
        duration: float,
        boot_time: float,
        allowed: Optional[Dict[int, float]] = None,
        allowed_sorted: Optional[list] = None,
    ) -> Tuple[float, float]:
        """Record, then delegate (passing the hoisted sort through
        only when the inner timeline accepts it)."""
        self._recorder.record(
            self._tl_id, "place", [mode, ready, duration, boot_time, allowed]
        )
        if allowed_sorted is not None:
            return self._inner.place(
                mode, ready, duration, boot_time, allowed, allowed_sorted
            )
        return self._inner.place(mode, ready, duration, boot_time, allowed)


def load_trace(path: str) -> List[dict]:
    """Parse a trace file (plain or ``.gz``) into its event dicts.

    Owner tuples and other tuple-valued arguments come back as lists;
    replay code re-tuples them (see ``tests/sched/oracle.py``).
    """
    if path.endswith(".gz"):
        import gzip

        fh = gzip.open(path, "rt", encoding="utf-8")
    else:
        fh = open(path, "r", encoding="utf-8")
    with fh:
        return [json.loads(line) for line in fh if line.strip()]
