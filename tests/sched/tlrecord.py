"""Timeline operation trace recording for the differential oracle.

The differential oracle in ``tests/sched/oracle.py`` proves the
timeline implementations interchangeable on randomized operation
sequences -- but random sequences only approximate the distribution a
real synthesis produces (bursts of same-resource occupies, ready
times that revisit earlier gaps, mode joins dominating inserts).
This module captures the *real* thing: donate an engine to
``crusade()`` inside :func:`record_timelines` and every timeline the
scheduler builds through it is wrapped in a recording proxy that
appends one JSON line per operation::

    from repro import crusade
    from repro.perf.engine import IncrementalEngine
    from tests.sched.tlrecord import record_timelines

    engine = IncrementalEngine()
    with record_timelines(engine, "ops.jsonl"):
        crusade(spec, engine=engine)

The capture can then be replayed -- ``tests/sched/oracle.py::
replay_trace`` -- against every registered implementation
simultaneously, turning one NGXM run into a permanent deterministic
regression case (see ``tests/sched/traces/``).

Recording works from the test side alone: for the duration of the
``with`` block it replaces the two production classes in
:mod:`repro.perf.fasttimeline`, which
:func:`repro.sched.scheduler.build_schedule` looks up on every build,
with factories of recording proxies over them, and turns off the
engine's trails (a resumed build skips the operations of the
decisions it reuses, so a trace would miss them).  Proxies delegate
everything and record only the scheduler-facing mutations and
queries, so a traced run still produces byte-identical results.
Every build in the block is recorded, so donate ``engine`` to every
synthesis the block runs.

``limit`` caps the recorded operation count (default 500000 -- about
60 MB of JSONL, gzipping ~20x) so tracing a full-scale run cannot
fill a disk; the cap drops later operations, keeping the prefix every
implementation must still agree on.  Needs only the stdlib and
``repro``.
"""

from __future__ import annotations

import contextlib
import json
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Default operation cap per recorder.
DEFAULT_TRACE_LIMIT = 500_000


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

    def __init__(self, path: str, limit: int = DEFAULT_TRACE_LIMIT) -> None:
        """Open ``path`` for appending, recording at most ``limit``
        operations."""
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


@contextlib.contextmanager
def record_timelines(
    engine, path: str, limit: int = DEFAULT_TRACE_LIMIT
) -> Iterator[TimelineRecorder]:
    """Record every timeline ``engine`` schedules onto into ``path``.

    For the duration of the block the scheduler builds recording
    proxies over the production timeline classes, and ``engine``'s
    scheduler context neither resumes from nor keeps a trail; on exit
    the classes and the context are restored and the file closed.
    """
    from repro.perf import fasttimeline

    serial = fasttimeline.FastTimeline
    ppe = fasttimeline.FastPpeModeTimeline
    context = engine.context
    recorder = TimelineRecorder(path, limit)
    fasttimeline.FastTimeline = recorder.wrap_serial(serial)
    fasttimeline.FastPpeModeTimeline = recorder.wrap_ppe(ppe)
    context.trail_for = lambda plan: None
    context.keep_trail = lambda trail: None
    try:
        yield recorder
    finally:
        fasttimeline.FastTimeline = serial
        fasttimeline.FastPpeModeTimeline = ppe
        del context.trail_for, context.keep_trail
        recorder.close()


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
        record: Optional[list] = None,
    ) -> Tuple[float, float]:
        """Record, then delegate (passing the hoisted sort and the
        outcome record through only when given: the linear reference
        timeline accepts neither)."""
        self._recorder.record(
            self._tl_id, "place", [mode, ready, duration, boot_time, allowed]
        )
        if record is not None:
            return self._inner.place(
                mode, ready, duration, boot_time, allowed, allowed_sorted,
                record,
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
