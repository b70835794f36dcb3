"""Resource timelines: interval placement and mode windows."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import SchedulingError
from repro.sched.timeline import IntervalTimeline, ModeWindow, PpeModeTimeline


class TestIntervalTimeline:
    def test_empty_fit(self):
        tl = IntervalTimeline()
        assert tl.earliest_fit(5.0, 1.0) == 5.0

    def test_sequential_occupation(self):
        tl = IntervalTimeline()
        tl.occupy(0.0, 1.0, ("a",))
        start = tl.earliest_fit(0.0, 1.0)
        assert start == 1.0
        tl.occupy(start, 1.0, ("b",))
        assert tl.busy_time() == pytest.approx(2.0)

    def test_gap_filling(self):
        tl = IntervalTimeline()
        tl.occupy(0.0, 1.0, ("a",))
        tl.occupy(3.0, 1.0, ("b",))
        # A 1.5-long task fits the [1, 3) gap.
        assert tl.earliest_fit(0.0, 1.5) == 1.0
        # A 2.5-long one must go after everything.
        assert tl.earliest_fit(0.0, 2.5) == 4.0

    def test_overlap_rejected(self):
        tl = IntervalTimeline()
        tl.occupy(0.0, 2.0, ("a",))
        with pytest.raises(SchedulingError):
            tl.occupy(1.0, 1.0, ("b",))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0.01, max_value=10),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_placements_never_overlap(self, jobs):
        tl = IntervalTimeline()
        for i, (ready, duration) in enumerate(jobs):
            start = tl.earliest_fit(ready, duration)
            tl.occupy(start, duration, (i,))
        intervals = sorted(tl.intervals, key=lambda iv: iv.start)
        for a, b in zip(intervals, intervals[1:]):
            assert a.end <= b.start + 1e-9


class TestPpeModeTimeline:
    def test_first_window_boots_free(self):
        tl = PpeModeTimeline()
        start, finish = tl.place(0, ready=0.5, duration=1.0, boot_time=0.2)
        assert (start, finish) == (0.5, 1.5)
        assert tl.reconfigurations == 0
        assert tl.boot_time_total == 0.0

    def test_same_mode_tasks_overlap(self):
        tl = PpeModeTimeline()
        tl.place(0, 0.0, 1.0, 0.2)
        start, finish = tl.place(0, 0.2, 1.0, 0.2)
        assert start == 0.2  # concurrent circuit regions
        assert tl.reconfigurations == 0

    def test_mode_switch_charges_boot(self):
        tl = PpeModeTimeline()
        tl.place(0, 0.0, 1.0, 0.2)
        start, finish = tl.place(1, 0.0, 1.0, 0.2)
        assert start == pytest.approx(1.2)  # drained + boot
        assert tl.reconfigurations == 1
        assert tl.boot_time_total == pytest.approx(0.2)

    def test_gap_insertion_between_windows(self):
        tl = PpeModeTimeline()
        tl.place(0, 0.0, 1.0, 0.1)
        tl.place(1, 10.0, 1.0, 0.1)
        # A mode-2 task fits the big gap with boots on both sides.
        start, finish = tl.place(2, 2.0, 1.0, 0.1)
        assert start == pytest.approx(2.0)
        assert finish < 10.0 - 0.1 + 1e-9
        assert tl.reconfigurations == 2

    def test_prepend_before_first_window(self):
        tl = PpeModeTimeline()
        tl.place(0, 5.0, 1.0, 0.1)
        start, finish = tl.place(1, 0.0, 1.0, 0.1)
        assert start == 0.0  # becomes the power-up configuration
        # Old first window now reboots; count reflects the switch.
        assert tl.reconfigurations == 1

    def test_same_mode_across_gap_is_free(self):
        tl = PpeModeTimeline()
        tl.place(0, 0.0, 1.0, 0.1)
        start, _ = tl.place(0, 5.0, 1.0, 0.1)
        assert start == 5.0
        assert tl.reconfigurations == 0

    def test_alternating_modes_count_switches(self):
        tl = PpeModeTimeline()
        for k in range(4):
            tl.place(k % 2, ready=k * 2.0, duration=0.5, boot_time=0.1)
        assert tl.reconfigurations == 3

    def test_replica_allowed_modes_avoid_reboot(self):
        tl = PpeModeTimeline()
        tl.place(0, 0.0, 1.0, 0.2)
        # A task whose cluster is replicated in modes {0, 1} can join
        # the live mode-0 window instead of forcing a switch.
        start, finish = tl.place(
            1, 0.5, 0.2, 0.2, allowed={0: 0.2, 1: 0.2}
        )
        assert start == 0.5
        assert tl.reconfigurations == 0

    def test_busy_time_and_span(self):
        tl = PpeModeTimeline()
        tl.place(0, 0.0, 1.0, 0.1)
        tl.place(1, 2.0, 1.0, 0.1)
        assert tl.busy_time() == pytest.approx(2.0)
        assert tl.windows[0].start == 0.0
        # The boot fits inside the idle gap: nothing is pushed later.
        assert tl.windows[-1].end == pytest.approx(3.0)

    def test_negative_durations_rejected(self):
        tl = PpeModeTimeline()
        with pytest.raises(SchedulingError):
            tl.place(0, 0.0, -1.0, 0.0)
        with pytest.raises(SchedulingError):
            tl.place(0, 0.0, 1.0, -0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.floats(min_value=0, max_value=50),
                st.floats(min_value=0.01, max_value=5),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_windows_stay_ordered_and_gapped(self, jobs):
        """Invariant: windows are time-ordered, non-overlapping, and
        every mode switch has at least the boot time between windows."""
        boot = 0.25
        tl = PpeModeTimeline()
        for mode, ready, duration in jobs:
            tl.place(mode, ready, duration, boot)
        windows = tl.windows
        for a, b in zip(windows, windows[1:]):
            assert a.end <= b.start + 1e-9
            if a.mode != b.mode:
                assert b.start - a.end >= boot - 1e-9
