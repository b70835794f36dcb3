"""The production scheduler against the reference scheduler.

Two layers of defense beyond the end-to-end equivalence suite:

* :class:`repro.perf.fasttimeline.FastTimeline` is fuzzed operation-
  by-operation against :class:`repro.sched.timeline.IntervalTimeline`
  -- same placements, same intervals, same split decisions;
* :func:`repro.sched.scheduler.build_schedule` over a
  :class:`repro.perf.fastsched.SchedulerContext` must emit the exact
  schedule the reference loop
  (``tests/sched/reference_scheduler.py``) produces, on synthesized
  workloads whose architectures exercise processors, links, and
  programmable devices.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrusadeConfig, GeneratorConfig, Tracer, crusade, generate_spec
from repro.cluster.clustering import cluster_spec
from repro.core.crusade import _allocation_aware_context, _compute_priorities
from repro.errors import SchedulingError
from repro.graph.association import AssociationArray
from repro.resources.catalog import default_library
from repro.sched.scheduler import ScheduleRequest, build_schedule
from repro.sched.timeline import IntervalTimeline, PpeModeTimeline
from repro.perf.fastsched import SchedulerContext
from repro.perf.fasttimeline import FastPpeModeTimeline, FastTimeline
from tests.sched.reference_scheduler import build_reference_schedule

TIMELINE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

#: (ready, duration) pools spanning equal values, adjacency, and gaps.
_times = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
_durations = st.floats(
    min_value=0.001, max_value=10.0, allow_nan=False, allow_infinity=False
)


@TIMELINE_SETTINGS
@given(ops=st.lists(st.tuples(_times, _durations), min_size=1, max_size=40))
def test_fast_timeline_matches_linear_placements(ops):
    legacy = IntervalTimeline()
    fast = FastTimeline()
    for i, (ready, duration) in enumerate(ops):
        want_start = legacy.earliest_fit(ready, duration)
        got_start = fast.earliest_fit(ready, duration)
        assert got_start == want_start
        want = legacy.occupy(want_start, duration, ("op", i))
        got = fast.occupy(got_start, duration, ("op", i))
        assert got == want
    assert [(iv.start, iv.end, iv.owner) for iv in fast.intervals] == [
        (iv.start, iv.end, iv.owner) for iv in legacy.intervals
    ]


@TIMELINE_SETTINGS
@given(
    ops=st.lists(st.tuples(_times, _durations), min_size=1, max_size=20),
    ready=_times,
    duration=_durations,
    overhead=st.floats(min_value=0.0, max_value=1.0),
)
def test_fast_timeline_matches_linear_split_fit(ops, ready, duration, overhead):
    legacy = IntervalTimeline()
    fast = FastTimeline()
    for i, (r, d) in enumerate(ops):
        start = legacy.earliest_fit(r, d)
        legacy.occupy(start, d, ("op", i))
        fast.occupy(fast.earliest_fit(r, d), d, ("op", i))
    assert fast.split_fit(ready, duration, overhead) == legacy.split_fit(
        ready, duration, overhead
    )


def test_fast_timeline_rejects_collisions():
    fast = FastTimeline()
    fast.occupy(1.0, 2.0, ("a",))
    with pytest.raises(SchedulingError):
        fast.occupy(2.0, 2.0, ("b",))
    # Boundary placement is fine (shared endpoint).
    fast.occupy(3.0, 1.0, ("c",))


def test_fast_timeline_degrades_on_end_disorder():
    """A sliver landing inside a longer interval's span breaks the
    end-sorted invariant; the timeline must notice and keep answering
    through the linear algorithms."""
    fast = FastTimeline()
    legacy = IntervalTimeline()
    for tl in (fast, legacy):
        tl.occupy(10.0, 40.0, ("long",))
        # Bypass earliest_fit: force a zero-duration sliver inside the
        # epsilon window at the long interval's start.
        tl._insert(type(tl._intervals[0])(10.0 + 1e-13, 10.0 + 1e-13, ("sliver",)))
    assert fast._degraded
    for ready in (0.0, 5.0, 10.0, 25.0, 50.0, 60.0):
        assert fast.earliest_fit(ready, 3.0) == legacy.earliest_fit(ready, 3.0)


# ----------------------------------------------------------------------
_modes = st.integers(min_value=0, max_value=3)
_ppe_durations = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
_boots = st.floats(
    min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


def _windows_dump(timeline):
    return [(w.mode, w.start, w.end, w.boot_time) for w in timeline.windows]


@TIMELINE_SETTINGS
@given(
    ops=st.lists(
        st.tuples(_modes, _times, _ppe_durations, _boots, st.sets(_modes, max_size=4)),
        min_size=1,
        max_size=30,
    )
)
def test_fast_ppe_timeline_matches_linear(ops):
    legacy = PpeModeTimeline()
    fast = FastPpeModeTimeline()
    for mode, ready, duration, boot, extra in ops:
        if extra:
            allowed = {m: boot + m * 0.125 for m in sorted(extra | {mode})}
            want = legacy.place(mode, ready, duration, boot, dict(allowed))
            got = fast.place(mode, ready, duration, boot, dict(allowed))
        else:
            want = legacy.place(mode, ready, duration, boot)
            got = fast.place(mode, ready, duration, boot)
        assert got == want
    assert _windows_dump(fast) == _windows_dump(legacy)


def test_fast_ppe_timeline_degrades_on_window_disorder():
    """A zero-duration insert whose boot pushes it past the next
    window's start (inside the epsilon slack) breaks the start-sorted
    invariant; the timeline must notice and keep answering through the
    linear algorithm."""
    fast = FastPpeModeTimeline()
    legacy = PpeModeTimeline()
    for tl in (fast, legacy):
        tl.place(0, 0.0, 1.0, 0.0)
        tl.place(1, 1.0 + 1e-13, 1.0, 0.0)
        tl.place(2, 1.0, 0.0, 3e-13)
    assert fast._degraded
    assert _windows_dump(fast) == _windows_dump(legacy)
    for tl in (fast, legacy):
        tl.place(0, 0.5, 2.0, 0.25, {0: 0.25, 1: 0.5})
    assert _windows_dump(fast) == _windows_dump(legacy)


def _workload(seed):
    spec = generate_spec(GeneratorConfig(
        seed=seed, n_graphs=3, tasks_per_graph=6, compat_group_size=2,
        utilization=0.25, hw_only_fraction=0.35, mixed_fraction=0.15,
    ))
    library = default_library()
    result = crusade(spec, library=library,
                     config=CrusadeConfig(max_explicit_copies=2))
    assoc = AssociationArray(spec, max_explicit_copies=2)
    context = _allocation_aware_context(library, result.arch, result.clustering)
    priorities = _compute_priorities(spec, context)
    return spec, assoc, result.clustering, result.arch, priorities


def _schedule_dump(schedule):
    return (
        {k: (t.pe_id, t.mode, t.start, t.finish, t.preempted)
         for k, t in schedule.tasks.items()},
        {k: (e.link_id, e.start, e.finish) for k, e in schedule.edges.items()},
        {pid: [(iv.start, iv.end, iv.owner) for iv in tl.intervals]
         for pid, tl in schedule.proc_timelines.items()},
        {lid: [(iv.start, iv.end, iv.owner) for iv in tl.intervals]
         for lid, tl in schedule.link_timelines.items()},
        {pid: [(w.mode, w.start, w.end, w.boot_time) for w in tl.windows]
         for pid, tl in schedule.ppe_timelines.items()},
        schedule.preemptions,
    )


@pytest.mark.parametrize("seed", [1, 5, 9, 23])
def test_planned_schedule_is_byte_identical(seed):
    spec, assoc, clustering, arch, priorities = _workload(seed)
    base = dict(
        spec=spec, assoc=assoc, clustering=clustering, arch=arch,
        priorities=priorities,
    )
    reference = build_reference_schedule(ScheduleRequest(**base))
    context = SchedulerContext()
    tracer = Tracer()
    planned = build_schedule(
        ScheduleRequest(tracer=tracer, context=context, **base)
    )
    assert _schedule_dump(planned) == _schedule_dump(reference)
    # Same request again: the plan is reused, the output unchanged.
    replay = build_schedule(ScheduleRequest(tracer=tracer, context=context, **base))
    assert _schedule_dump(replay) == _schedule_dump(reference)
    counters = tracer.counters.as_dict()
    assert counters["perf.plan.misses"] == 1
    assert counters["perf.plan.hits"] == 1


def test_route_cache_tracks_topology_version(seed=5):
    spec, assoc, clustering, arch, priorities = _workload(seed)
    pes = sorted(arch.pes)
    if len(pes) < 2:
        pytest.skip("workload produced a single-PE architecture")
    base = dict(
        spec=spec, assoc=assoc, clustering=clustering, arch=arch,
        priorities=priorities,
    )
    context = SchedulerContext()
    build_schedule(ScheduleRequest(context=context, **base))
    table = context.route_table(arch)
    assert context.route_table(arch) is table
    a, b = pes[0], pes[1]
    before = arch.topo_version
    # A fresh link between the pair must invalidate the memo, and the
    # next run over the same context must route as the reference loop
    # does on the new topology.
    link_type = arch.library.links_by_cost()[0]
    arch.connect(a, b, link_type)
    assert arch.topo_version > before
    assert context.route_table(arch) is not table
    rerouted = build_schedule(ScheduleRequest(context=context, **base))
    reference = build_reference_schedule(ScheduleRequest(**base))
    assert _schedule_dump(rerouted) == _schedule_dump(reference)
