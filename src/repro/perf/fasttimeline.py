"""Bisect-indexed interval timeline for the incremental engine.

:class:`repro.sched.timeline.IntervalTimeline` keeps busy intervals
sorted but scans them linearly: ``earliest_fit`` walks from the first
interval, ``occupy`` collision-checks against every interval, and
``split_fit`` re-sorts the (already sorted) list on every call.  Those
scans are the scheduler's hottest loops -- millions of epsilon
comparisons per synthesis run.

:class:`FastTimeline` maintains a parallel, sorted list of interval
*end* times so both hot operations start from a bisected index:

* ``earliest_fit`` skips -- in O(log n) -- the prefix of intervals
  ending at or before the ready time, all of which the linear scan
  would skip too;
* ``occupy`` collision-checks only the insertion point's neighbors:
  with intervals sorted and pairwise non-overlapping, any colliding
  interval must neighbor the insertion index;
* ``split_fit`` reuses the maintained order instead of sorting.

The epsilon arithmetic is inlined but textually identical to
``time_lt``/``time_leq``, so placements are bit-for-bit the ones the
linear scans produce.  The end-sorted invariant can only break when a
(near-)zero-duration interval lands within epsilon of a longer
interval's start -- impossible for real task/transfer durations, but
guarded anyway: ``_insert`` detects the disorder and flips the
timeline into a *degraded* mode that falls back to the superclass's
linear algorithms, preserving exactness unconditionally.

:class:`FastPpeModeTimeline` applies the same treatment to the
programmable-device mode timeline, whose candidate sweep dominates
hardware-heavy examples: bisected prefix skips, monotone lower-bound
early exits, and a hoisted mode sort -- same candidates, same
tie-breaks, same degraded-mode escape hatch.

Both classes can also be rebuilt from a finished timeline's record
without re-running its operations, which is how the scheduler resumes
a build from the previous build of the same plan
(:func:`repro.sched.scheduler.build_schedule`):
:func:`restore_timeline` takes a prefix of the intervals in their
stored order, and :func:`replay_mode_timeline` re-applies the outcomes
``place`` appended to its optional ``record`` list.  Neither adds an
instance attribute.

Both classes pickle as rows of primitives -- one ``(start, end,
owner)`` row per interval, one ``(mode, start, end, boot_time)`` row
per window, in list order -- plus the degraded flag, and unpickling
rebuilds the bisect lists from the rows as :func:`restore_timeline`
does.  Store entries written before the rows (an attribute dict)
still load.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.sched.timeline import (
    BusyInterval,
    IntervalTimeline,
    ModeWindow,
    PpeModeTimeline,
)
from repro.units import TIME_EPS


class FastTimeline(IntervalTimeline):
    """Drop-in :class:`IntervalTimeline` with bisected hot paths."""

    def __init__(self) -> None:
        """Empty timeline with its bisect end-index."""
        super().__init__()
        self._ends: List[float] = []
        self._degraded = False

    def __getstate__(self) -> tuple:
        """Pickled state: ``(start, end, owner)`` rows in list order and
        the degraded flag; the bisect lists are rebuilt on load."""
        return (
            [(iv.start, iv.end, iv.owner) for iv in self._intervals],
            self._degraded,
        )

    def __setstate__(self, state) -> None:
        """Rebuild from :meth:`__getstate__`'s rows, or from the
        attribute dict that store entries written before the rows
        hold."""
        if isinstance(state, dict):
            self.__dict__.update(state)
            return
        rows, degraded = state
        self._intervals = [BusyInterval(*row) for row in rows]
        self._starts = [row[0] for row in rows]
        self._ends = [row[1] for row in rows]
        self._degraded = degraded

    # ------------------------------------------------------------------
    def _insert(self, interval: BusyInterval) -> None:
        index = bisect.bisect_right(self._starts, interval.start)
        ends = self._ends
        if (index > 0 and ends[index - 1] > interval.end) or (
            index < len(ends) and interval.end > ends[index]
        ):
            # End order broken (epsilon-sliver placement): linear
            # algorithms from here on.
            self._degraded = True
        self._intervals.insert(index, interval)
        self._starts.insert(index, interval.start)
        ends.insert(index, interval.end)

    # ------------------------------------------------------------------
    def earliest_fit(self, ready: float, duration: float) -> float:
        """Earliest start >= ready with ``duration`` of free time
        (bisects past every interval ending before ``ready``)."""
        if self._degraded:
            return super().earliest_fit(ready, duration)
        if duration < 0:
            raise SchedulingError("duration must be non-negative")
        intervals = self._intervals
        ends = self._ends
        candidate = ready
        # Every interval ending at or before ready would be skipped by
        # the linear scan (end - TIME_EPS <= end <= ready); bisect past
        # all of them.  The few ending within epsilon after ready meet
        # the exact test in the loop.
        index = bisect.bisect_right(ends, candidate)
        for i in range(index, len(intervals)):
            end = ends[i]
            if candidate >= end - TIME_EPS:  # not time_lt(candidate, end)
                continue
            start = intervals[i].start
            # not time_lt(start, candidate + duration)
            if start >= candidate + duration - TIME_EPS:
                return candidate
            if end > candidate:
                candidate = end
        return candidate

    # ------------------------------------------------------------------
    def occupy(
        self, start: float, duration: float, owner: tuple
    ) -> Tuple[float, float]:
        """Insert a busy interval, keeping the bisect indexes sorted."""
        if self._degraded:
            return super().occupy(start, duration, owner)
        end = start + duration
        starts = self._starts
        ends = self._ends
        index = bisect.bisect_right(starts, start)
        intervals = self._intervals
        # Any collider satisfies time_lt(start, other.end) and
        # time_lt(other.start, end), which imply other.end > start and
        # other.start < end outright -- so with both key lists sorted
        # (non-degraded invariant) every possible collider lies in
        # [bisect_right(ends, start), bisect_left(starts, end)).  For
        # real placements that window is empty or a single neighbor;
        # only epsilon-sliver populations widen it (the old
        # two-neighbor check could bisect past a collider hiding
        # behind a zero-length interval at ready + TIME_EPS -- the
        # differential oracle's regression case).  Scanning the window
        # in index order reproduces the linear scan's first-collider
        # error exactly.
        for i in range(bisect.bisect_right(ends, start),
                       bisect.bisect_left(starts, end)):
            other = intervals[i]
            # time_lt(start, other.end) and time_lt(other.start, end)
            if start < other.end - TIME_EPS and other.start < end - TIME_EPS:
                raise SchedulingError(
                    "overlap: [%g, %g) collides with [%g, %g) owned by %r"
                    % (start, end, other.start, other.end, other.owner)
                )
        # Inlined _insert at the already-bisected index (bisecting
        # _starts again would land on the same position).
        if (index > 0 and ends[index - 1] > end) or (
            index < len(ends) and end > ends[index]
        ):
            self._degraded = True
        intervals.insert(index, BusyInterval(start, end, owner))
        self._starts.insert(index, start)
        ends.insert(index, end)
        return start, end

    # ------------------------------------------------------------------
    def split_fit(
        self,
        ready: float,
        duration: float,
        overhead: float,
        max_segments: int = 4,
    ) -> Optional[List[Tuple[float, float]]]:
        """Fit ``duration`` across free gaps (restricted preemption),
        identical to the superclass minus a redundant sort."""
        # Same body as the superclass, minus the redundant sort: the
        # interval list is maintained in start order (and ``sorted`` is
        # stable, so the legacy call returned this exact order).  The
        # prefix ending at or before ready -- which the walk's exact
        # skip test would step over one by one (end - TIME_EPS <= end
        # <= ready) -- is bisected past, which needs the end-sorted
        # invariant.  The epsilon tests are the superclass's
        # ``not time_lt`` negations of occupy's collision terms,
        # inlined.
        if self._degraded:
            return super().split_fit(ready, duration, overhead, max_segments)
        if duration < 0 or overhead < 0:
            raise SchedulingError("durations must be non-negative")
        segments: List[Tuple[float, float]] = []
        remaining = duration
        cursor = ready
        busy = self._intervals
        index = bisect.bisect_right(self._ends, ready)
        while remaining > TIME_EPS and len(segments) < max_segments:
            while index < len(busy) and cursor >= busy[index].end - TIME_EPS:
                index += 1
            if index < len(busy) and cursor >= busy[index].start - TIME_EPS:
                cursor = busy[index].end
                continue
            gap_end = busy[index].start if index < len(busy) else float("inf")
            cost = remaining + (overhead if segments else 0.0)
            available = gap_end - cursor
            if gap_end >= cursor + cost - TIME_EPS:
                segments.append((cursor, cursor + cost))
                remaining = 0.0
                break
            useful = available - (overhead if segments else 0.0)
            if useful > TIME_EPS:
                segments.append((cursor, gap_end))
                remaining -= useful
            cursor = gap_end
        if remaining > TIME_EPS:
            return None
        return segments


class FastPpeModeTimeline(PpeModeTimeline):
    """Drop-in :class:`PpeModeTimeline` with a pruned ``place``.

    The linear ``place`` enumerates a join candidate per window and a
    gap candidate per (gap, allowed mode) -- and re-sorts the allowed
    modes once per gap.  With windows time-ordered and every candidate
    finishing at ``start + duration``, both sweeps admit exact pruning:

    * windows whose busy span ends before the ready time (within
      epsilon) can never host a join, and gaps that close before the
      ready time can never admit an insert -- bisect past both
      prefixes;
    * candidate finish times are monotone in the window/gap index
      (window starts and gap floors only grow), so once a candidate's
      lower bound exceeds the incumbent best finish, no later
      candidate can win -- stop the sweep.

    Pruned candidates are provably losers or exactly the ones the
    linear sweep skips, and surviving candidates are enumerated in the
    same order with the same float arithmetic, so the chosen placement
    (including first-wins tie-breaks) is bit-for-bit the linear one.
    Like :class:`FastTimeline`, an epsilon-sliver mutation that breaks
    the maintained window order flips the timeline into a degraded
    mode that delegates to the linear superclass.
    """

    def __init__(self) -> None:
        """Empty mode-window timeline with its bisect indexes."""
        super().__init__()
        self._starts: List[float] = []
        self._wends: List[float] = []
        self._degraded = False

    def __getstate__(self) -> tuple:
        """Pickled state: ``(mode, start, end, boot_time)`` rows in
        window order and the degraded flag; the bisect lists are
        rebuilt on load (a degraded timeline never reads them)."""
        return (
            [(w.mode, w.start, w.end, w.boot_time) for w in self.windows],
            self._degraded,
        )

    def __setstate__(self, state) -> None:
        """Rebuild from :meth:`__getstate__`'s rows, or from the
        attribute dict that store entries written before the rows
        hold."""
        if isinstance(state, dict):
            self.__dict__.update(state)
            return
        rows, degraded = state
        self.windows = [ModeWindow(*row) for row in rows]
        self._starts = [row[1] for row in rows]
        self._wends = [row[2] for row in rows]
        self._degraded = degraded

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
        """``allowed_sorted``, when given, must be
        ``sorted(allowed.items())`` -- callers that memoize the allowed
        map per (device, cluster) hoist the sort out of this hot path.

        ``record``, when given, gets the outcome appended for
        :func:`replay_mode_timeline`: ``(index, finish)`` for a join
        of window ``index``, ``(index, mode, start, finish,
        boot_time)`` for a window inserted at ``index``.  Degraded
        placements append nothing (a build that degraded keeps no
        record).
        """
        if self._degraded:
            return super().place(mode, ready, duration, boot_time, allowed)
        if duration < 0 or boot_time < 0:
            raise SchedulingError("durations must be non-negative")
        if allowed is None:
            allowed = {mode: boot_time}
            allowed_sorted = None
        for b in allowed.values():  # plain loop: no genexpr per call
            if b < 0:
                raise SchedulingError("boot times must be non-negative")
        windows = self.windows
        starts = self._starts
        ends = self._wends
        n = len(windows)
        best: Optional[Tuple[float, float, str, int, int]] = None

        # Join candidates.  Windows ending before ready - EPS fail the
        # busy-span test (their start precedes their end, hence ready);
        # bisect past them.
        i0 = bisect.bisect_left(ends, ready - TIME_EPS)
        for index in range(i0, n):
            window = windows[index]
            w_start = window.start
            start = ready if ready > w_start else w_start
            finish = start + duration
            # Window starts only grow, so every later join candidate
            # finishes at or after this one: no strict improvement left.
            if best is not None and finish > best[0]:
                break
            if window.mode not in allowed:
                continue
            w_end = window.end
            if w_end < start - TIME_EPS:  # time_lt(window.end, start)
                continue
            new_end = w_end if w_end > finish else finish
            if index + 1 < n:
                nxt = windows[index + 1]
                gap_after = nxt.boot_time if nxt.mode != window.mode else 0.0
                # time_lt(nxt.start - gap_after, new_end)
                if nxt.start - gap_after < new_end - TIME_EPS:
                    continue
            if best is None or (finish, start) < (best[0], best[1]):
                best = (finish, start, "join", index, window.mode)

        # Gap candidates.  A gap whose following window ends before
        # ready - EPS closes before any candidate could finish; the
        # first viable gap is the one ending at windows[i0] (or the
        # open region when every window is past).
        if allowed_sorted is None:
            allowed_sorted = sorted(allowed.items())
        for gap in range(i0 - 1 if i0 > 0 else -1, n):
            prev = windows[gap] if gap >= 0 else None
            if prev is not None and best is not None:
                floor = ready if ready > prev.end else prev.end
                # Gap floors only grow: no later gap can strictly win.
                if floor + duration > best[0]:
                    break
            nxt = windows[gap + 1] if gap + 1 < n else None
            for m, m_boot in allowed_sorted:
                boot_before = 0.0
                if prev is not None and prev.mode != m:
                    boot_before = m_boot
                earliest = (prev.end if prev is not None else 0.0) + boot_before
                start = max(ready, earliest, 0.0)
                finish = start + duration
                if nxt is not None:
                    gap_after = nxt.boot_time if nxt.mode != m else 0.0
                    # time_lt(nxt.start - gap_after, finish)
                    if nxt.start - gap_after < finish - TIME_EPS:
                        continue
                if best is None or (finish, start) < (best[0], best[1]):
                    best = (finish, start, "insert", gap, m)

        assert best is not None, "gap after the last window always fits"
        finish, start, how, index, chosen_mode = best
        if how == "join":
            window = windows[index]
            if finish > window.end:
                window.end = finish
                ends[index] = finish
                if index + 1 < n and finish > ends[index + 1]:
                    self._degraded = True
            if record is not None:
                record.append((index, finish))
            return start, finish
        at = index + 1
        boot = allowed[chosen_mode]
        windows.insert(
            at,
            ModeWindow(mode=chosen_mode, start=start, end=finish, boot_time=boot),
        )
        if record is not None:
            record.append((at, chosen_mode, start, finish, boot))
        starts.insert(at, start)
        ends.insert(at, finish)
        if (at > 0 and (starts[at - 1] > start or ends[at - 1] > finish)) or (
            at + 1 < len(starts)
            and (start > starts[at + 1] or finish > ends[at + 1])
        ):
            self._degraded = True
        return start, finish


def restore_timeline(intervals: List[BusyInterval]) -> FastTimeline:
    """A timeline holding ``intervals``, taken in their stored order
    from a :class:`FastTimeline` that never degraded.

    Inserts never reorder earlier intervals, so any subset of a
    non-degraded timeline kept in its order is exactly the state
    inserting that subset alone produces.
    """
    timeline = FastTimeline()
    timeline._intervals.extend(intervals)
    timeline._starts.extend([interval.start for interval in intervals])
    timeline._ends.extend([interval.end for interval in intervals])
    return timeline


def replay_mode_timeline(outcomes: List[tuple]) -> FastPpeModeTimeline:
    """The timeline a sequence of ``place`` calls left behind, rebuilt
    from the outcomes they appended to ``record`` (on a
    :class:`FastPpeModeTimeline` that never degraded)."""
    timeline = FastPpeModeTimeline()
    windows = timeline.windows
    starts = timeline._starts
    ends = timeline._wends
    for outcome in outcomes:
        if len(outcome) == 2:
            index, finish = outcome
            window = windows[index]
            if finish > window.end:
                window.end = finish
                ends[index] = finish
        else:
            at, mode, start, finish, boot_time = outcome
            windows.insert(at, ModeWindow(
                mode=mode, start=start, end=finish, boot_time=boot_time,
            ))
            starts.insert(at, start)
            ends.insert(at, finish)
    return timeline
