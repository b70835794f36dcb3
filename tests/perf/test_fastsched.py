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
  programmable devices;
* the plans a context stamps out of its graphs' table rows hold what
  the graph queries give, down to the string objects.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrusadeConfig, GeneratorConfig, Tracer, crusade, generate_spec
from repro.cluster.clustering import cluster_spec
from repro.cluster.priority import PriorityContext
from repro.core.stages.support import allocation_aware_context, compute_priorities
from repro.errors import SchedulingError
from repro.graph.association import AssociationArray
from repro.graph.taskgraph import GraphTableCache
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
    context = allocation_aware_context(
        PriorityContext.pessimistic(library), result.arch, result.clustering
    )
    priorities = compute_priorities(spec, context)
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


# -- plans from per-graph rows ------------------------------------------
def _query_plan(request):
    """``(records, roots, indegree, deadline rows)`` of a request,
    derived with the graph's own queries for every task of every
    explicit copy."""
    spec, clustering = request.spec, request.clustering
    records, roots, indegree = {}, [], {}
    for instance in request.assoc.iter_explicit():
        if request.graphs is not None and instance.graph not in request.graphs:
            continue
        graph = spec.graph(instance.graph)
        for task_name in graph.topological_order():
            key = (instance.graph, instance.copy, task_name)
            preds = tuple(
                (
                    (instance.graph, instance.copy, pred),
                    graph.edge(pred, task_name).bytes_,
                    (instance.graph, instance.copy, pred, task_name),
                )
                for pred in graph.predecessors(task_name)
            )
            records[key] = (
                instance.arrival,
                preds,
                tuple(
                    ((instance.graph, instance.copy, succ), succ)
                    for succ in graph.successors(task_name)
                ),
                graph.task(task_name),
                clustering.cluster_of(instance.graph, task_name).name,
            )
            indegree[key] = len(preds)
            if not preds:
                roots.append(key)
    deadline_rows = {}
    for name in spec.graph_names():
        if request.graphs is not None and name not in request.graphs:
            continue
        graph = spec.graph(name)
        deadline_rows[name] = tuple(
            ((name, instance.copy, task), instance.arrival
             + graph.effective_deadline(task))
            for instance in request.assoc.explicit_copies(name)
            for task in graph.deadline_tasks()
        )
    return records, roots, indegree, deadline_rows


def _assert_same_objects(new, old):
    """``new == old``, with every string the same object: plans reach
    the schedule, and a pickle writes one copy per string object."""
    assert type(new) is type(old)
    if isinstance(new, str):
        assert new is old
    elif isinstance(new, (tuple, list)):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            _assert_same_objects(a, b)
    elif isinstance(new, dict):
        assert list(new) == list(old)
        for (ka, va), (kb, vb) in zip(new.items(), old.items()):
            _assert_same_objects(ka, kb)
            _assert_same_objects(va, vb)
    else:
        assert new == old


@pytest.mark.parametrize("seed", [1, 9])
def test_plan_rows_equal_the_graph_queries(seed):
    """A plan stamped out of its graphs' table rows holds the
    records, roots, in-degrees and deadline rows the graph queries
    give, down to the string objects, with and without a graph filter
    and from a second context sharing nothing."""
    spec, assoc, clustering, arch, priorities = _workload(seed)
    context = SchedulerContext()
    for graphs in (None, frozenset(spec.graph_names()[1:2])):
        request = ScheduleRequest(
            spec=spec, assoc=assoc, clustering=clustering, arch=arch,
            priorities=priorities, graphs=graphs,
        )
        for plan in (context.plan_for(request),
                     SchedulerContext().plan_for(request)):
            records, roots, indegree, deadline_rows = _query_plan(request)
            _assert_same_objects(plan.records, records)
            _assert_same_objects(plan.roots, roots)
            _assert_same_objects(plan.indegree, indegree)
            _assert_same_objects(plan.deadline_rows, deadline_rows)


def test_plan_rows_follow_a_changed_graph():
    """A graph's plan rows are derived once, and again after
    ``add_edge`` changed the graph."""
    spec, *_ = _workload(5)
    graph = spec.graph(spec.graph_names()[0])
    tables = GraphTableCache()
    rows = tables(graph).plan_rows
    assert tables(graph).plan_rows is rows
    order = graph.topological_order()
    src, dst = next(
        (a, b) for i, a in enumerate(order) for b in order[i + 1:]
        if b not in graph.successors(a)
    )
    graph.add_edge(src, dst, bytes_=64)
    changed = tables(graph).plan_rows
    assert changed is not rows
    task_rows = {row[0]: row for row in changed}
    assert dst in task_rows[src][2]
    assert (src, 64) in task_rows[dst][1]
