"""What a store entry holds, and schedules pickled as packed rows.

A result entry leaves out the specification -- its key is the spec's
digest, so every reader already holds it -- and ``load_result`` binds
the caller's own object.  Schedules and the production timelines, in
result and fragment entries alike, pickle as rows of primitives and
rebuild their bisect lists on load.  These tests audit an entry's
classes, hold ``crusade()`` to returning the caller's spec on a cold
run and on an exact hit, and hold every round trip to the original:
schedules of the hostile corpus and cached fragments exactly, dict
orders and bisect lists included; degraded timelines by their answers;
the linear reference timelines still pickle.  Entries that an earlier
revision wrote are ``test_store_compat.py``'s.
"""

from __future__ import annotations

import io
import pickle

import pytest

from repro import CrusadeConfig, GeneratorConfig, Tracer, crusade, generate_spec
from repro.io.result_json import canonical_result_json
from repro.perf.engine import IncrementalEngine
from repro.perf.fasttimeline import FastPpeModeTimeline, FastTimeline
from repro.sched.timeline import IntervalTimeline, PpeModeTimeline
from repro.units import TIME_EPS
from tests.perf.test_hostile_corpus import CASES, synthesized
from tests.sched.oracle import dump_ppe, dump_serial, run_ppe_op, run_serial_op

#: The specification's classes, none of which a result entry may name.
SPEC_CLASSES = {
    ("repro.graph.spec", "SystemSpec"),
    ("repro.graph.taskgraph", "TaskGraph"),
    ("repro.graph.task", "Task"),
    ("repro.graph.edge", "Edge"),
    ("repro.graph.task", "AssertionSpec"),
}

#: Per-row classes that packed schedules and timelines no longer name.
ROW_CLASSES = {
    ("repro.sched.scheduler", "ScheduledTask"),
    ("repro.sched.scheduler", "ScheduledEdge"),
    ("repro.sched.timeline", "BusyInterval"),
    ("repro.sched.timeline", "ModeWindow"),
}


def _spec():
    return generate_spec(GeneratorConfig(seed=11, n_graphs=2, tasks_per_graph=6))


def pickled_classes(data: bytes) -> set:
    """Every (module, name) that unpickling ``data`` looks up."""
    found = set()

    class Audit(pickle.Unpickler):
        def find_class(self, module, name):
            found.add((module, name))
            return super().find_class(module, name)

    Audit(io.BytesIO(data)).load()
    return found


def _timeline_state(timeline) -> dict:
    """A timeline's attributes; a degraded mode timeline's bisect lists
    are left out, since it never reads them again."""
    state = dict(vars(timeline))
    if state.get("_degraded") and "windows" in state:
        del state["_starts"], state["_wends"]
    return state


def schedule_state(schedule) -> tuple:
    """Everything a schedule holds, in its dicts' orders, with every
    timeline's class and attributes (bisect lists included)."""
    return (
        list(schedule.tasks.items()),
        list(schedule.edges.items()),
        [
            [(name, type(tl), _timeline_state(tl)) for name, tl in tls.items()]
            for tls in (schedule.proc_timelines, schedule.ppe_timelines,
                        schedule.link_timelines)
        ],
        schedule.preemptions,
        None if schedule.lateness is None else [
            (graph, list(rows.items()))
            for graph, rows in schedule.lateness.items()
        ],
        None if schedule.demand is None else list(schedule.demand.items()),
    )


def fragment_state(fragment) -> tuple:
    """A fragment's schedule, verdict by-products and miss count."""
    return (
        schedule_state(fragment.schedule),
        [(graph, list(rows.items())) for graph, rows in fragment.lateness.items()],
        list(fragment.demand.items()),
        fragment.misses,
    )


def _round_trip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


# ----------------------------------------------------------------------
# what a result entry holds
# ----------------------------------------------------------------------
def test_result_entry_holds_no_spec_and_no_row_objects(tmp_path):
    crusade(_spec(), config=CrusadeConfig(cache_dir=str(tmp_path)))
    (entry,) = (tmp_path / "results").glob("*.pkl")
    classes = pickled_classes(entry.read_bytes())
    assert ("repro.core.report", "CoSynthesisResult") in classes
    assert ("repro.sched.scheduler", "Schedule") in classes
    assert ("repro.perf.fasttimeline", "FastPpeModeTimeline") in classes
    assert not classes & SPEC_CLASSES
    assert not classes & ROW_CLASSES


def test_crusade_returns_the_callers_spec(tmp_path):
    """A cold run and an exact hit both return the caller's own spec
    object, and the hit equals the cold result."""
    spec = _spec()
    config = CrusadeConfig(cache_dir=str(tmp_path))
    cold = crusade(spec, config=config)
    assert cold.spec is spec
    tracer = Tracer()
    hit = crusade(spec, config=config, tracer=tracer)
    assert tracer.counters.as_dict()["perf.store.hit"] == 1
    assert hit.spec is spec
    assert canonical_result_json(hit) == canonical_result_json(cold)


# ----------------------------------------------------------------------
# schedules and fragments round-trip exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family, seed", CASES)
def test_hostile_schedules_round_trip_exactly(family, seed):
    schedule = synthesized(family, seed)[1].schedule
    copy = _round_trip(schedule)
    assert schedule_state(copy) == schedule_state(schedule)
    assert pickle.dumps(copy) == pickle.dumps(schedule)


def test_cached_fragments_round_trip_exactly():
    """Every fragment an engine caches during a synthesis comes back
    equal, its by-products still the schedule's own dicts."""
    engine = IncrementalEngine()
    crusade(_spec(), engine=engine)
    fragments = list(engine._fragments.values())
    assert fragments
    for fragment in fragments:
        copy = _round_trip(fragment)
        assert fragment_state(copy) == fragment_state(fragment)
        assert copy.lateness is copy.schedule.lateness
        assert copy.demand is copy.schedule.demand


# ----------------------------------------------------------------------
# timelines
# ----------------------------------------------------------------------
SERIAL_PROBES = [
    ("earliest_fit", ready, 0.5)
    for ready in (0.0, 3.3, 5.0, 5.0 + TIME_EPS, 29.95, 100.0)
] + [
    ("split_fit", 0.0, 3.0, 0.05, 4),
    ("occupy", 5.5, 1.0, ("collider",)),
    ("occupy", 30.0, 1.0, ("after",)),
    ("occupy", 5.0 + 2 * TIME_EPS, 0.0, ("second sliver",)),
    ("earliest_fit", 4.0, 2.0),
    ("busy_time",),
    ("len",),
]

PPE_PROBES = [
    ("place", 0, 0.5, 2.0, 0.25, {0: 0.25, 1: 0.5}),
    ("place", 2, 0.0, 0.5, 0.125, None),
    ("place", 1, 3.0, 1.0, 0.5, None),
    ("place", 0, 1.0 + TIME_EPS, 0.0, 0.0, None),
    ("reconfigurations",),
    ("boot_time_total",),
    ("busy_time",),
]


def _serial_timeline(cls):
    """Thirty intervals and an epsilon sliver at interval 5's start,
    which breaks a fast timeline's end order (the timeline oracle's
    degradation case)."""
    timeline = cls()
    for i in range(30):
        timeline.occupy(float(i), 0.9, ("base", i))
    timeline.occupy(5.0 + TIME_EPS, 0.0, ("sliver",))
    return timeline


def _mode_timeline(cls):
    """A zero-duration insert whose boot pushes it past the next
    window's start, which breaks a fast timeline's window order."""
    timeline = cls()
    timeline.place(0, 0.0, 1.0, 0.0)
    timeline.place(1, 1.0 + 1e-13, 1.0, 0.0)
    timeline.place(2, 1.0, 0.0, 3e-13)
    return timeline


def _same_answers(original, copy, probes, run_op, dump):
    assert dump(copy) == dump(original)
    for probe in probes:
        assert run_op(copy, probe) == run_op(original, probe), probe
        assert dump(copy) == dump(original), probe


@pytest.mark.parametrize("cls", [FastTimeline, IntervalTimeline])
def test_serial_timelines_round_trip(cls):
    """A degraded fast timeline stays degraded and answers as the
    original; the linear reference still pickles."""
    original = _serial_timeline(cls)
    copy = _round_trip(original)
    assert type(copy) is cls
    if cls is FastTimeline:
        assert original._degraded and copy._degraded
        assert vars(copy) == vars(original)
    _same_answers(original, copy, SERIAL_PROBES, run_serial_op, dump_serial)


@pytest.mark.parametrize("cls", [FastPpeModeTimeline, PpeModeTimeline])
def test_mode_timelines_round_trip(cls):
    """As above, for the programmable-device timelines."""
    original = _mode_timeline(cls)
    copy = _round_trip(original)
    assert type(copy) is cls
    if cls is FastPpeModeTimeline:
        assert original._degraded and copy._degraded
    _same_answers(original, copy, PPE_PROBES, run_ppe_op, dump_ppe)
