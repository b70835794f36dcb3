"""Resumed schedule builds against from-scratch builds.

A :class:`repro.perf.fastsched.SchedulerContext` keeps a trail of each
plan's last finished build, and :func:`repro.sched.scheduler.
build_schedule` resumes the next build of the plan from it: leading
decisions whose every input equals the trail's are copied, and
scheduling goes on from the first that differs.  These tests hold
every resumed build to the build a fresh context makes of the same
request:

* during real syntheses, where allocation places, evaluates, reverts
  and commits candidates over one context, every build is compared
  field by field, pickle byte for byte, and by its ``sched.*``
  counters (Hypothesis drives the generated specs), and every resume
  point found from the trail's indexes equals the prefix the heap
  replay of ``tests/perf/replay_oracle.py`` finds;
* under a bound the reused prefix already exceeds, the resumed build
  aborts for the same reason, and bounded and unbounded builds resume
  each other's trails;
* the decision order reads no placement, and a priority table edited
  in place never keeps a stale order;
* the build's view of devices and links is compared with the trail's
  exactly: boot times that alone changed, and a link re-created under
  an equal but new id string, stop the reuse at their first read;
* nothing resumes from a build whose timelines degraded, or while
  the context's timeline factories are recording proxies;
* the fast timelines pickle exactly the attributes they always had.
"""

import contextlib
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrusadeConfig, GeneratorConfig, Tracer, crusade, generate_spec
from repro.arch.architecture import Architecture
from repro.bench.examples import build_example
from repro.cluster.clustering import cluster_spec
from repro.cluster.priority import PriorityContext
from repro.core.stages.support import allocation_aware_context, compute_priorities
from repro.graph.association import AssociationArray
from repro.perf import engine as engine_module
from repro.perf.engine import IncrementalEngine
from repro.perf.cow import undo_journal
from repro.perf.fastsched import SchedulerContext
from repro.perf.fasttimeline import (
    FastPpeModeTimeline,
    FastTimeline,
    replay_mode_timeline,
    restore_timeline,
)
from repro.reconfig.reboot import default_boot_time
from repro.resources.catalog import default_library
from repro.resources.pe import PEKind
from repro.sched import scheduler
from repro.sched.finish_time import _OVERLOAD_TOLERANCE
from repro.sched.scheduler import ScheduleAbort, ScheduleRequest, build_schedule
from repro.units import TIME_EPS
from tests.perf.replay_oracle import checked_resume_points
from tests.sched.reference_scheduler import build_reference_schedule
from tests.sched.tlrecord import record_timelines


def _snapshot(schedule):
    """Everything a schedule holds, in its dicts' orders, including
    the timelines' bisect indexes."""
    return (
        list(schedule.tasks.items()),
        list(schedule.edges.items()),
        [(pid, vars(tl)) for pid, tl in schedule.proc_timelines.items()],
        [(lid, vars(tl)) for lid, tl in schedule.link_timelines.items()],
        [(pid, vars(tl)) for pid, tl in schedule.ppe_timelines.items()],
        schedule.preemptions,
        [(g, list(rows.items())) for g, rows in schedule.lateness.items()],
        list(schedule.demand.items()),
    )


def _outcome(request, tracer=None):
    """(schedule, abort reason, sched.* counters) of one build, booked
    on ``tracer`` (a fresh one when None)."""
    if tracer is None:
        tracer = Tracer()
    try:
        schedule = scheduler.build_schedule(
            dataclasses.replace(request, tracer=tracer)
        )
        reason = None
    except ScheduleAbort as abort:
        schedule, reason = None, abort.reason
    counters = {
        name: value for name, value in tracer.counters.as_dict().items()
        if name.startswith("sched.")
    }
    return schedule, reason, counters


@contextlib.contextmanager
def counted_timeline_ops():
    """Count the scheduler-facing operations on the production
    timelines (the classes stay the context's factories, so builds
    still resume); yields a one-element list holding the count."""
    count = [0]
    methods = [
        (FastTimeline, name)
        for name in ("earliest_fit", "occupy", "split_fit")
    ] + [(FastPpeModeTimeline, "place")]

    def counting(original):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for cls, name in methods:
            patch.setattr(cls, name, counting(cls.__dict__[name]))
        yield count


class CheckedBuilds:
    """Stands in for the engine's ``build_schedule``: every build runs
    twice, over the engine's own context (resuming) and over a fresh
    one, and the two must agree exactly.  ``ops`` tallies the timeline
    operations of each side."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.builds = 0
        self.resumed_ops = 0
        self.fresh_ops = 0

    def __call__(self, request):
        before = self.ops[0]
        resumed, reason, counters = _outcome(request)
        middle = self.ops[0]
        fresh, fresh_reason, fresh_counters = _outcome(
            dataclasses.replace(request, context=SchedulerContext())
        )
        self.resumed_ops += middle - before
        self.fresh_ops += self.ops[0] - middle
        assert reason == fresh_reason
        assert counters == fresh_counters
        if reason is None:
            assert _snapshot(resumed) == _snapshot(fresh)
            assert pickle.dumps(resumed) == pickle.dumps(fresh)
        self.builds += 1
        for name, value in counters.items():
            request.tracer.incr(name, value)
        if reason is not None:
            raise ScheduleAbort(reason)
        return resumed


def _checked_synthesis(monkeypatch, spec, config):
    """Synthesize ``spec`` with every engine build checked; returns
    the checker with its build and timeline-operation tallies."""
    with counted_timeline_ops() as ops:
        checked = CheckedBuilds(ops)
        monkeypatch.setattr(engine_module, "build_schedule", checked)
        crusade(spec, config=config, engine=IncrementalEngine())
    assert checked.builds > 0
    return checked


def _generated(seed, n_graphs, tasks_per_graph, utilization, hw_only):
    return generate_spec(GeneratorConfig(
        seed=seed, n_graphs=n_graphs, tasks_per_graph=tasks_per_graph,
        compat_group_size=2, utilization=utilization,
        hw_only_fraction=hw_only, mixed_fraction=0.15,
    ))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_graphs=st.integers(min_value=1, max_value=4),
    tasks_per_graph=st.integers(min_value=3, max_value=12),
    utilization=st.sampled_from([0.25, 0.6, 1.0]),
    hw_only=st.sampled_from([0.0, 0.35]),
    preemption=st.booleans(),
)
def test_every_build_of_a_synthesis_equals_a_fresh_build(
    seed, n_graphs, tasks_per_graph, utilization, hw_only, preemption,
):
    """Place, evaluate, revert, commit: every build the allocation,
    merge and repair steps make over one resuming context equals the
    same request built over a fresh context, and resumes where the
    heap replay says it may."""
    spec = _generated(seed, n_graphs, tasks_per_graph, utilization, hw_only)
    config = CrusadeConfig(max_explicit_copies=2, preemption=preemption)
    with checked_resume_points(), pytest.MonkeyPatch.context() as patch:
        _checked_synthesis(patch, spec, config)


def test_a_synthesis_resumes_most_decisions(monkeypatch):
    """On a fixed workload the checked synthesis does resume: the
    resuming builds make well under the fresh builds' timeline
    operations, and not none."""
    spec = _generated(11, 3, 8, 0.6, 0.35)
    with checked_resume_points() as points:
        checked = _checked_synthesis(
            monkeypatch, spec, CrusadeConfig(max_explicit_copies=2)
        )
    assert points[0] > 0
    assert 0 < checked.resumed_ops < 0.7 * checked.fresh_ops


def test_resume_points_equal_the_replay_on_a1tr():
    """A1TR@0.05: every resumed build of a cold synthesis resumes at
    the decision the heap replay finds, and most builds resume."""
    tracer = Tracer()
    with checked_resume_points() as points:
        crusade(build_example("A1TR", scale=0.05), tracer=tracer)
    assert points[0] > tracer.counters.get("sched.runs") // 2


# -- bounded builds ----------------------------------------------------
def _one_processor_workload():
    """A software-only spec with every cluster on one processor: late
    tasks and an overloaded CPU, so bounds have violations to count."""
    spec = generate_spec(GeneratorConfig(
        seed=3, n_graphs=3, tasks_per_graph=7, utilization=1.0,
        hw_only_fraction=0.0, mixed_fraction=0.0,
    ))
    library = default_library()
    clustering = cluster_spec(spec, library)
    arch = Architecture(library)
    cpu = next(
        t for t in library.pe_types.values() if t.kind is PEKind.PROCESSOR
    )
    pe = arch.new_pe(cpu)
    for name in clustering.clusters:
        arch.allocate_cluster(name, pe.id, 0)
    assoc = AssociationArray(spec, max_explicit_copies=2)
    priorities = compute_priorities(
        spec, allocation_aware_context(
            PriorityContext.pessimistic(library), arch, clustering
        )
    )
    return dict(
        spec=spec, assoc=assoc, clustering=clustering, arch=arch,
        priorities=priorities,
    )


def _violations(schedule, capacity):
    misses = sum(
        1 for rows in schedule.lateness.values() for late in rows.values()
        if late > TIME_EPS
    )
    overloads = sum(
        1 for load in schedule.demand.values()
        if load / capacity > _OVERLOAD_TOLERANCE
    )
    return misses + overloads


def _abort_reason(request):
    try:
        build_schedule(request)
    except ScheduleAbort as abort:
        return abort.reason
    return None


def test_resumed_build_aborts_inside_the_prefix_like_a_fresh_build(
    monkeypatch,
):
    """The same request again resumes its whole trail; under each
    bound the trail exceeds, the restore raises the same abort a fresh
    build does."""
    base = _one_processor_workload()
    context = SchedulerContext()
    full = build_schedule(ScheduleRequest(context=context, **base))
    total = _violations(full, base["assoc"].hyperperiod)
    assert total >= 2

    restored = []
    real_restore = scheduler._restore_prefix

    def spy(*args, **kwargs):
        try:
            return real_restore(*args, **kwargs)
        except ScheduleAbort as abort:
            restored.append(abort.reason)
            raise

    monkeypatch.setattr(scheduler, "_restore_prefix", spy)
    reasons = set()
    for bound_base in (0, 1):
        for limit in range(bound_base, total + bound_base):
            fresh = _abort_reason(ScheduleRequest(
                bound=(limit,), bound_base=bound_base, **base
            ))
            resumed = _abort_reason(ScheduleRequest(
                bound=(limit,), bound_base=bound_base, context=context,
                **base
            ))
            assert fresh is not None
            assert resumed == fresh
            assert restored.pop() == fresh
            reasons.add(fresh)
    assert reasons == {"deadline", "overload"}
    # A bound the schedule meets finishes, resumed, unchanged.
    again = build_schedule(ScheduleRequest(
        bound=(total,), context=context, **base
    ))
    assert _snapshot(again) == _snapshot(full)


def _resumed_outcome(request):
    """:func:`_outcome` of ``request``, and the decisions it resumed."""
    tracer = Tracer()
    outcome = _outcome(request, tracer)
    return outcome, tracer.counters.get("perf.resume.decisions")


def _assert_same_outcome(resumed, fresh):
    schedule, reason, counters = resumed
    fresh_schedule, fresh_reason, fresh_counters = fresh
    assert reason == fresh_reason
    assert counters == fresh_counters
    if reason is None:
        assert _snapshot(schedule) == _snapshot(fresh_schedule)
        assert pickle.dumps(schedule) == pickle.dumps(fresh_schedule)


def test_bounded_and_unbounded_builds_resume_each_others_trails():
    """Every build logs its violations, bounded or not: an unbounded
    build resuming a bounded build's trail, and a bounded build
    resuming an unbounded one, each equal a fresh build -- the same
    schedule, abort reason and ``sched.*`` counters -- whether the
    whole trail is reused or only the decisions before a cluster that
    lost its placement."""
    base = _one_processor_workload()
    full = build_schedule(ScheduleRequest(**base))
    total = _violations(full, base["assoc"].hyperperiod)
    assert total >= 2
    graph_name, _, task_name = list(full.tasks)[-1]
    last = base["clustering"].cluster_of(graph_name, task_name).name

    def unplace_last():
        arch = base["arch"].clone()
        arch.deallocate_cluster(last)
        return dict(base, arch=arch)

    pairs = [(None, (limit,)) for limit in range(total + 1)]
    pairs.append(((total,), None))
    reasons = set()
    for kept_bound, bound in pairs:
        for second in (base, unplace_last()):
            context = SchedulerContext()
            build_schedule(ScheduleRequest(
                bound=kept_bound, context=context, **base
            ))
            resumed, reused = _resumed_outcome(ScheduleRequest(
                bound=bound, context=context, **second
            ))
            if second is base:
                assert reused == len(full.tasks)
            else:
                assert 0 < reused < len(full.tasks)
            _assert_same_outcome(
                resumed, _outcome(ScheduleRequest(bound=bound, **second))
            )
            reasons.add(resumed[1])
    assert reasons >= {None, "deadline", "overload"}


def test_decision_order_reads_no_placement():
    """Fresh builds of one plan over two architectures, under the same
    priorities, decide the tasks in the same order -- the reference
    scheduler's -- though they place and time them differently."""
    base = _one_processor_workload()
    library = base["arch"].library
    cpu = next(
        t for t in library.pe_types.values() if t.kind is PEKind.PROCESSOR
    )
    spread = Architecture(library)
    pe = spread.new_pe(cpu)
    for index, name in enumerate(base["clustering"].clusters):
        if index % 2:
            spread.allocate_cluster(name, pe.id, 0)
    one = build_schedule(ScheduleRequest(**base))
    other = build_schedule(ScheduleRequest(**dict(base, arch=spread)))
    reference = build_reference_schedule(ScheduleRequest(**base))
    assert list(one.tasks) == list(other.tasks) == list(reference.tasks)
    assert [(t.pe_id, t.finish) for t in one.tasks.values()] != [
        (t.pe_id, t.finish) for t in other.tasks.values()
    ]


def test_priorities_edited_in_place_get_a_new_order():
    """A priority table edited in place between two builds on one
    context changes the decision order: the second build equals a
    fresh build under the edited values, not one in the stale order."""
    base = _one_processor_workload()
    context = SchedulerContext()
    first = build_schedule(ScheduleRequest(context=context, **base))
    for table in base["priorities"].values():
        values = list(table.values())
        for name, value in zip(list(table), reversed(values)):
            table[name] = value
    resumed, _ = _resumed_outcome(ScheduleRequest(context=context, **base))
    fresh = _outcome(ScheduleRequest(**base))
    assert list(fresh[0].tasks) != list(first.tasks)
    _assert_same_outcome(resumed, fresh)


def test_an_equal_but_new_pe_id_string_is_not_resumed():
    """A PE re-created under the same id (as a reverted candidate's PE
    is) has a new id string.  The resumed build must carry the current
    string, not the trail's, or a pickle of the schedule with its
    architecture would hold the id twice."""
    base = _one_processor_workload()
    arch = base["arch"]
    context = SchedulerContext()
    build_schedule(ScheduleRequest(context=context, **base))
    (pe,) = arch.pes.values()
    new_id = "".join([pe.id[:1], pe.id[1:]])
    assert new_id == pe.id and new_id is not pe.id
    pe.id = new_id
    arch.pes = {new_id: pe}
    for name, (_, mode) in list(arch.cluster_alloc.items()):
        arch.cluster_alloc[name] = (new_id, mode)
    resumed = build_schedule(ScheduleRequest(context=context, **base))
    fresh = build_schedule(ScheduleRequest(**base))
    assert all(t.pe_id is new_id for t in resumed.tasks.values())
    assert pickle.dumps((resumed, arch)) == pickle.dumps((fresh, arch))


# -- the build's view of devices and links ----------------------------
def _device_workload():
    """A synthesized architecture whose programmable devices carry
    several modes and reconfigure, with no ASIC."""
    spec = generate_spec(GeneratorConfig(
        seed=0, n_graphs=3, tasks_per_graph=8, compat_group_size=3,
        utilization=0.6, hw_only_fraction=0.6, mixed_fraction=0.2,
        asic_eligible_fraction=0.0,
    ))
    result = crusade(spec, config=CrusadeConfig(max_explicit_copies=2))
    arch = result.arch
    priorities = compute_priorities(
        spec, allocation_aware_context(
            PriorityContext.pessimistic(arch.library), arch,
            result.clustering,
        )
    )
    return dict(
        spec=spec, assoc=AssociationArray(spec, max_explicit_copies=2),
        clustering=result.clustering, arch=arch, priorities=priorities,
    )


def test_changed_boot_times_alone_are_not_resumed():
    """Between two builds of one plan only the devices' boot times
    change (another boot-time function): every placement, mode and
    link is the same, so only the device signatures' boot times tell
    the builds apart.  The resumed build re-makes every decision from
    the first one on a device whose boot times changed, and equals a
    fresh build."""
    base = _device_workload()
    arch = base["arch"]
    context = SchedulerContext()
    first = build_schedule(ScheduleRequest(context=context, **base))

    def slower(pe, mode):
        return 2.0 * default_boot_time(pe, mode)

    changed = {
        pe.id for pe in arch.pes.values()
        if any(
            slower(pe, mode.index) != default_boot_time(pe, mode.index)
            for mode in pe.modes
        )
    }
    first_read = next(
        step for step, placed in enumerate(first.tasks.values())
        if placed.pe_id in changed
    )
    resumed, reused = _resumed_outcome(ScheduleRequest(
        context=context, boot_time_fn=slower, **base
    ))
    fresh = _outcome(ScheduleRequest(boot_time_fn=slower, **base))
    assert first.reconfigurations > 0
    assert _snapshot(fresh[0]) != _snapshot(first)
    assert 0 < reused == first_read
    _assert_same_outcome(resumed, fresh)


def _linked_workload():
    """:func:`_one_processor_workload`'s clusters spread over two
    processors, joined by one link made under a copy-on-write journal;
    returns the request fields, the two PE ids, the link type and the
    journal."""
    base = _one_processor_workload()
    arch = base["arch"]
    (first,) = arch.pes.values()
    second = arch.new_pe(first.pe_type)
    for index, name in enumerate(sorted(arch.cluster_alloc)):
        if index % 2:
            arch.deallocate_cluster(name)
            arch.allocate_cluster(name, second.id, 0)
    link_type = arch.library.links_by_cost()[0]
    journal = []
    arch.connect(first.id, second.id, link_type, journal)
    return base, (first.id, second.id), link_type, journal


def test_a_link_recreated_under_its_id_is_not_resumed():
    """A link deleted and re-created under the same id (as a reverted
    candidate's link is) equals the old one in value, but its id is a
    new string.  The resumed build must re-make every decision from
    the first transfer on it, or the schedule would carry the trail's
    string beside the architecture's, and a pickle of the two would
    hold the id twice."""
    base, (pe_a, pe_b), link_type, journal = _linked_workload()
    arch = base["arch"]
    context = SchedulerContext()
    first = build_schedule(ScheduleRequest(context=context, **base))
    steps = {key: step for step, key in enumerate(first.tasks)}
    first_transfer = min(
        steps[edge.key[:2] + edge.key[3:]]
        for edge in first.edges.values() if edge.link_id is not None
    )
    (old_id,) = arch.links
    undo_journal(arch, journal)
    link = arch.connect(pe_a, pe_b, link_type)
    assert link.id == old_id and link.id is not old_id
    resumed, reused = _resumed_outcome(ScheduleRequest(
        context=context, **base
    ))
    fresh = _outcome(ScheduleRequest(**base))
    assert 0 < reused == first_transfer
    _assert_same_outcome(resumed, fresh)
    assert all(
        edge.link_id is link.id for edge in resumed[0].edges.values()
        if edge.link_id is not None
    )
    assert pickle.dumps((resumed[0], arch)) == pickle.dumps((fresh[0], arch))


# -- where no build resumes -------------------------------------------
def test_no_resume_from_a_build_whose_timelines_degraded(monkeypatch):
    """A build that degraded a timeline keeps no trail: the next build
    of its plan schedules every decision again."""
    base = _one_processor_workload()
    original = FastTimeline.occupy

    def degrading_occupy(self, start, duration, owner):
        placed = original(self, start, duration, owner)
        self._degraded = True
        return placed

    monkeypatch.setattr(FastTimeline, "occupy", degrading_occupy)
    context = SchedulerContext()
    with counted_timeline_ops() as ops:
        first = build_schedule(ScheduleRequest(context=context, **base))
        ops_first = ops[0]
        second = build_schedule(ScheduleRequest(context=context, **base))
    assert any(tl._degraded for tl in first.proc_timelines.values())
    assert ops_first > 0 and ops[0] == 2 * ops_first
    assert _snapshot(second) == _snapshot(first)


def test_no_resume_while_timelines_are_recorded(tmp_path):
    """Recording proxies see every operation: builds over a recording
    context neither keep nor use trails."""
    base = _one_processor_workload()
    engine = IncrementalEngine()
    context = engine.context
    plain = build_schedule(ScheduleRequest(context=context, **base))
    with record_timelines(engine, str(tmp_path / "ops.jsonl")) as recorder:
        recorded = build_schedule(ScheduleRequest(context=context, **base))
        ops_once = recorder._count
        build_schedule(ScheduleRequest(context=context, **base))
        assert recorder._count == 2 * ops_once
    assert list(recorded.tasks.items()) == list(plain.tasks.items())
    # Back on the production pair, the same request resumes its whole
    # trail: no timeline operation at all.
    with counted_timeline_ops() as ops:
        again = build_schedule(ScheduleRequest(context=context, **base))
    assert ops[0] == 0
    assert _snapshot(again) == _snapshot(plain)


# -- pickled state -----------------------------------------------------
SERIAL_ATTRIBUTES = ["_intervals", "_starts", "_ends", "_degraded"]
MODE_ATTRIBUTES = ["windows", "_starts", "_wends", "_degraded"]


def test_fast_timelines_pickle_only_their_own_attributes():
    """Outcome records live in the trail, not on the timelines: a
    timeline pickles the same attributes whether it was built by
    operations or restored, and whether or not ``place`` recorded."""
    serial = FastTimeline()
    serial.occupy(0.0, 1.0, ("g", 0, "a"))
    serial.occupy(2.0, 1.0, ("g", 0, "b"))
    restored = restore_timeline(serial.intervals[:1])
    mode = FastPpeModeTimeline()
    outcomes = []
    mode.place(0, 0.0, 1.0, 0.5, allowed={0: 0.5}, record=outcomes)
    mode.place(1, 0.0, 1.0, 0.5, allowed={1: 0.5}, record=outcomes)
    mode.place(1, 1.2, 0.5, 0.5, allowed={1: 0.5}, record=outcomes)
    replayed = replay_mode_timeline(outcomes)
    for timeline, attributes in (
        (serial, SERIAL_ATTRIBUTES), (restored, SERIAL_ATTRIBUTES),
        (mode, MODE_ATTRIBUTES), (replayed, MODE_ATTRIBUTES),
    ):
        assert list(vars(timeline)) == attributes
        assert list(vars(pickle.loads(pickle.dumps(timeline)))) == attributes
    assert vars(replayed) == vars(mode)
    assert pickle.dumps(replayed) == pickle.dumps(mode)
    assert list(vars(restored)) == SERIAL_ATTRIBUTES
    assert restored.intervals == serial.intervals[:1]
    assert restored._ends == [1.0]
