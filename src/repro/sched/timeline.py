"""Resource timelines for the static scheduler.

Two kinds of resources exist:

* serially used resources (processors, links) -- an
  :class:`IntervalTimeline` of busy intervals with first-fit gap
  placement and the gap-splitting sweep behind restricted preemption;
* programmable devices -- a :class:`PpeModeTimeline` of mode windows:
  tasks of the same configuration mode may overlap (they are separate
  circuit regions), tasks of different modes are separated by a reboot
  interval (Section 4.3).

ASICs execute their mapped tasks as independent circuit blocks, so
they need no timeline at all.

Both timeline kinds sit behind small abstract bases -- :class:`Timeline`
and :class:`ModeTimeline` -- that name exactly the operations the
scheduler and its consumers use.  The scheduler builds one production
pair, the bisect-indexed flat lists of :mod:`repro.perf.fasttimeline`.
The naive linear classes here stay in production too: they are the
reference semantics the differential oracle
(``tests/sched/oracle.py``) and the reference scheduler
(``tests/sched/reference_scheduler.py``) hold the production pair to,
bit for bit, and the fast classes fall back to their methods whenever
an epsilon-sliver insert breaks the bisect invariants (degraded mode).
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.units import TIME_EPS, time_lt


class Timeline(abc.ABC):
    """Abstract busy-interval timeline of one serially used resource.

    This is the contract the scheduler (:mod:`repro.sched.scheduler`)
    actually programs against: earliest-gap queries from a ready time,
    interval inserts and the restricted-preemption gap-splitting
    sweep, plus the interval list and busy time that Gantt charts,
    validation and JSON export read after a run.  The differential
    oracle in ``tests/sched/oracle.py`` holds every implementation to
    bit-identical answers, which is what lets the production timelines
    stand in for the linear reference under the repo's byte-identity
    contract.
    """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of busy intervals."""

    @property
    @abc.abstractmethod
    def intervals(self) -> List["BusyInterval"]:
        """Busy intervals in time order (read-only view)."""

    @abc.abstractmethod
    def earliest_fit(self, ready: float, duration: float) -> float:
        """Earliest start >= ``ready`` with ``duration`` of free time."""

    @abc.abstractmethod
    def occupy(self, start: float, duration: float, owner: tuple) -> Tuple[float, float]:
        """Mark [start, start+duration) busy; returns (start, end)."""

    @abc.abstractmethod
    def split_fit(
        self,
        ready: float,
        duration: float,
        overhead: float,
        max_segments: int = 4,
    ) -> Optional[List[Tuple[float, float]]]:
        """Segments running ``duration`` of work across free gaps, or
        None when no split within ``max_segments`` completes it."""

    @abc.abstractmethod
    def busy_time(self) -> float:
        """Total occupied time."""


class ModeTimeline(abc.ABC):
    """Abstract mode-window timeline of one programmable device.

    The scheduler only ever calls :meth:`place`; the validation,
    Gantt, JSON-export and sharing-analysis layers read
    :attr:`windows` and the reboot reductions afterwards.  Like
    :class:`Timeline`, every implementation is held to bit-identical
    placements by the differential oracle.
    """

    #: Mode windows in time order; implementations must expose a
    #: list-like, index-addressable sequence (consumers zip and slice).
    windows: List["ModeWindow"]

    @abc.abstractmethod
    def place(
        self,
        mode: int,
        ready: float,
        duration: float,
        boot_time: float,
        allowed: Optional[Dict[int, float]] = None,
    ) -> Tuple[float, float]:
        """Schedule a task at or after ``ready`` in any allowed mode;
        returns (start, finish)."""

    @abc.abstractmethod
    def busy_time(self) -> float:
        """Total window time (excludes reboot gaps)."""


@dataclass
class BusyInterval:
    """One occupied stretch of a serial resource."""

    start: float
    end: float
    owner: tuple

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SchedulingError(
                "interval end %g before start %g" % (self.end, self.start)
            )


class IntervalTimeline(Timeline):
    """Busy intervals of a serially used resource, kept sorted.

    Supports first-fit placement at or after a ready time, and
    splitting a task's work across free gaps (restricted preemption:
    higher-priority work is always reserved first, so no busy
    interval is ever split open for a later task).
    """

    def __init__(self) -> None:
        """Empty timeline: no busy interval."""
        self._intervals: List[BusyInterval] = []
        self._starts: List[float] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._intervals)

    @property
    def intervals(self) -> List[BusyInterval]:
        """Busy intervals in time order (do not mutate)."""
        return self._intervals

    def _insert(self, interval: BusyInterval) -> None:
        index = bisect.bisect_left(self._starts, interval.start)
        # Shift right past equal starts for stable ordering.
        while (
            index < len(self._starts)
            and self._starts[index] <= interval.start
        ):
            index += 1
        self._intervals.insert(index, interval)
        self._starts.insert(index, interval.start)

    def earliest_fit(self, ready: float, duration: float) -> float:
        """Earliest start >= ``ready`` with ``duration`` of free time.

        Both tests are the exact negations of :meth:`occupy`'s two
        collision terms, so a start returned here is always accepted
        there.  (``time_leq(a, b)`` is not the float negation of
        ``time_lt(b, a)``: ``b + TIME_EPS`` and ``a - TIME_EPS`` round
        differently when ``a`` and ``b`` sit one epsilon apart.)
        """
        if duration < 0:
            raise SchedulingError("duration must be non-negative")
        candidate = ready
        for interval in self._intervals:
            if not time_lt(candidate, interval.end):
                continue
            if not time_lt(interval.start, candidate + duration):
                return candidate
            candidate = max(candidate, interval.end)
        return candidate

    def occupy(self, start: float, duration: float, owner: tuple) -> Tuple[float, float]:
        """Mark [start, start+duration) busy; returns (start, end).

        Raises when the span collides with an existing interval --
        callers must place via :meth:`earliest_fit` first.
        """
        end = start + duration
        for interval in self._intervals:
            if time_lt(start, interval.end) and time_lt(interval.start, end):
                raise SchedulingError(
                    "overlap: [%g, %g) collides with [%g, %g) owned by %r"
                    % (start, end, interval.start, interval.end, interval.owner)
                )
        busy = BusyInterval(start=start, end=end, owner=owner)
        self._insert(busy)
        return start, end

    def split_fit(
        self,
        ready: float,
        duration: float,
        overhead: float,
        max_segments: int = 4,
    ) -> Optional[List[Tuple[float, float]]]:
        """Segments that run ``duration`` of work from ``ready`` by
        filling free gaps, resuming after each busy stretch.

        Each resumption (segment after the first) costs ``overhead``
        extra work time -- the preemption overhead of Section 5.  A
        segment is only worth opening if it fits at least the overhead
        plus a sliver of real work.  Returns None when no split within
        ``max_segments`` completes the work (callers then fall back to
        the contiguous placement).

        As in :meth:`earliest_fit`, the skip, cover and fit tests are
        exact negations of :meth:`occupy`'s collision terms, so every
        returned segment is accepted there.
        """
        if duration < 0 or overhead < 0:
            raise SchedulingError("durations must be non-negative")
        segments: List[Tuple[float, float]] = []
        remaining = duration
        cursor = ready
        busy = sorted(self._intervals, key=lambda iv: iv.start)
        index = 0
        while remaining > TIME_EPS and len(segments) < max_segments:
            # Advance past busy intervals a segment from the cursor
            # cannot collide with, then past one covering the cursor.
            while index < len(busy) and not time_lt(cursor, busy[index].end):
                index += 1
            if index < len(busy) and not time_lt(cursor, busy[index].start):
                cursor = busy[index].end
                continue
            gap_end = busy[index].start if index < len(busy) else float("inf")
            cost = remaining + (overhead if segments else 0.0)
            available = gap_end - cursor
            if not time_lt(gap_end, cursor + cost):
                segments.append((cursor, cursor + cost))
                remaining = 0.0
                break
            # Partial segment: only if it does useful work beyond the
            # resumption overhead.
            useful = available - (overhead if segments else 0.0)
            if useful > TIME_EPS:
                segments.append((cursor, gap_end))
                remaining -= useful
            cursor = gap_end
        if remaining > TIME_EPS:
            return None
        return segments

    def busy_time(self) -> float:
        """Total occupied time."""
        return sum(i.end - i.start for i in self._intervals)


@dataclass
class ModeWindow:
    """A stretch of time a programmable device executes tasks of one
    mode.

    ``boot_time`` is the time needed to reconfigure the device *into*
    this mode; whether the window actually pays it is derived from its
    predecessor (a window following a same-mode window switches
    nothing, and the first window is the power-up configuration).
    Consecutive same-mode windows are therefore harmless fragmentation
    -- the device simply stays configured across the idle gap.
    """

    mode: int
    start: float
    end: float
    boot_time: float = 0.0

    @property
    def duration(self) -> float:
        """Length of the window's busy span."""
        return self.end - self.start


class PpeModeTimeline(ModeTimeline):
    """Mode windows of one programmable PE instance.

    Tasks of the *same* mode may overlap in time (separate circuit
    regions of the same configuration); a task of a *different* mode
    must wait for the current window to drain and for a reboot of the
    target mode's boot time.  Windows are kept non-overlapping and
    time-ordered; reboot accounting is derived: window ``i`` pays its
    ``boot_time`` exactly when window ``i-1`` has a different mode
    (window 0 is the power-up configuration, loaded from PROM before
    time zero).
    """

    def __init__(self) -> None:
        """Empty timeline: the device has no mode window yet."""
        self.windows: List[ModeWindow] = []

    def _needs_boot(self, index: int) -> bool:
        """Whether window ``index`` pays its reboot."""
        return index > 0 and self.windows[index - 1].mode != self.windows[index].mode

    @property
    def reconfigurations(self) -> int:
        """Run-time mode switches on this device."""
        return sum(1 for i in range(len(self.windows)) if self._needs_boot(i))

    @property
    def boot_time_total(self) -> float:
        """Total time spent reconfiguring."""
        return sum(
            self.windows[i].boot_time
            for i in range(len(self.windows))
            if self._needs_boot(i)
        )

    def place(
        self,
        mode: int,
        ready: float,
        duration: float,
        boot_time: float,
        allowed: Optional[Dict[int, float]] = None,
    ) -> Tuple[float, float]:
        """Schedule a task at or after ``ready`` in any mode whose
        configuration carries it.

        ``allowed`` maps every usable mode to its boot time; it
        defaults to ``{mode: boot_time}``.  Clusters replicated across
        modes pass several entries, letting their tasks ride whichever
        configuration the device happens to be in (Figure 2(e)'s T1).

        Two kinds of candidate placements compete; the earliest finish
        wins:

        * **join** an existing window of an allowed mode at a start
          inside its busy span (concurrent circuit regions of one
          configuration), extending its end as long as the next
          window's reboot gap survives;
        * **insert** a fresh window of an allowed mode into any gap --
          before the first window, between two windows, or after the
          last.  Entering the gap costs that mode's boot time when the
          preceding window (if any) has a different mode, and the
          following window (if any) must retain room for its own
          reboot when its mode differs.  Same-mode windows across idle
          gaps are free: the device simply stays configured.

        Returns (start, finish).
        """
        if duration < 0 or boot_time < 0:
            raise SchedulingError("durations must be non-negative")
        if allowed is None:
            allowed = {mode: boot_time}
        if any(b < 0 for b in allowed.values()):
            raise SchedulingError("boot times must be non-negative")
        best: Optional[Tuple[float, float, str, int, int]] = None

        def consider(finish: float, start: float, how: str, index: int, m: int) -> None:
            """Keep the candidate when it finishes strictly earlier
            (then starts earlier) than the best so far."""
            nonlocal best
            if best is None or (finish, start) < (best[0], best[1]):
                best = (finish, start, how, index, m)

        n = len(self.windows)
        # Join candidates: allowed-mode windows whose busy span covers
        # the candidate start.
        for index, window in enumerate(self.windows):
            if window.mode not in allowed:
                continue
            start = max(ready, window.start)
            if time_lt(window.end, start):
                continue  # beyond the busy span: gap placement instead
            finish = start + duration
            new_end = max(window.end, finish)
            if index + 1 < n:
                nxt = self.windows[index + 1]
                gap_after = nxt.boot_time if nxt.mode != window.mode else 0.0
                if time_lt(nxt.start - gap_after, new_end):
                    continue
            consider(finish, start, "join", index, window.mode)
        # Gap candidates: gap g sits between windows[g] and
        # windows[g+1]; g = -1 is the region before the first window.
        for gap in range(-1, n):
            prev = self.windows[gap] if gap >= 0 else None
            nxt = self.windows[gap + 1] if gap + 1 < n else None
            for m, m_boot in sorted(allowed.items()):
                boot_before = 0.0
                if prev is not None and prev.mode != m:
                    boot_before = m_boot
                earliest = (prev.end if prev is not None else 0.0) + boot_before
                start = max(ready, earliest, 0.0)
                finish = start + duration
                if nxt is not None:
                    gap_after = nxt.boot_time if nxt.mode != m else 0.0
                    if time_lt(nxt.start - gap_after, finish):
                        continue
                consider(finish, start, "insert", gap, m)

        assert best is not None, "gap after the last window always fits"
        finish, start, how, index, chosen_mode = best
        if how == "join":
            window = self.windows[index]
            window.end = max(window.end, finish)
            return start, finish
        self.windows.insert(
            index + 1,
            ModeWindow(
                mode=chosen_mode,
                start=start,
                end=finish,
                boot_time=allowed[chosen_mode],
            ),
        )
        return start, finish

    def busy_time(self) -> float:
        """Total window time (excludes reboot gaps)."""
        return sum(w.duration for w in self.windows)
