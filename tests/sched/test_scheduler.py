"""The list scheduler: precedence, contention, preemption, modes."""

import pytest

from repro import SystemSpec, Task, TaskGraph
from repro.arch.architecture import Architecture
from repro.cluster.clustering import cluster_spec, trivial_clustering
from repro.cluster.priority import PriorityContext
from repro.core.stages.support import compute_priorities
from repro.graph.association import AssociationArray
from repro.graph.task import MemoryRequirement
from repro.sched.finish_time import evaluate_deadlines
from repro.sched.scheduler import ScheduleRequest, build_schedule


def schedule_spec(spec, library, placements, preemption=True, boot_time_fn=None):
    """Helper: cluster trivially, place clusters per `placements`
    (cluster index -> (pe_type, mode or 'new')), schedule."""
    clustering = trivial_clustering(spec, library)
    arch = Architecture(library)
    # Instantiate PEs in sorted key order so "CPU#0" really gets the
    # instance id CPU#0.
    pe_instances = {}
    for pe_key in sorted({target[0] for target in placements.values()}):
        pe_instances[pe_key] = arch.new_pe(library.pe_type(pe_key.split("#")[0]))
        assert pe_instances[pe_key].id == pe_key
    for cluster in clustering.ordered_by_priority():
        target = placements.get(cluster.name)
        if target is None:
            continue
        pe_key, mode = target
        pe = pe_instances[pe_key]
        while pe.n_modes <= mode:
            pe.new_mode()
        arch.allocate_cluster(
            cluster.name, pe.id, mode,
            gates=cluster.area_gates, pins=cluster.pins, memory=cluster.memory,
        )
    # Connect everything with one bus.
    bus = library.links_by_cost()[0]
    ids = sorted(arch.pes)
    for a in ids:
        for b in ids:
            if a < b:
                arch.connect(a, b, bus)
    assoc = AssociationArray(spec, max_explicit_copies=2)
    priorities = compute_priorities(spec, PriorityContext.pessimistic(library))
    request = ScheduleRequest(
        spec=spec, assoc=assoc, clustering=clustering, arch=arch,
        priorities=priorities, preemption=preemption, boot_time_fn=boot_time_fn,
    )
    return build_schedule(request), clustering, arch, assoc


def sw(name, wcet=1e-3):
    return Task(name=name, exec_times={"CPU": wcet},
                memory=MemoryRequirement(program=1024))


class TestPrecedence:
    def test_chain_order_respected(self, small_library, tiny_spec):
        placements = {
            "chain/s0000": ("CPU#0", 0),
            "chain/s0001": ("CPU#0", 0),
            "chain/s0002": ("CPU#0", 0),
        }
        schedule, *_ = schedule_spec(tiny_spec, small_library, placements)
        a = schedule.tasks[("chain", 0, "a")]
        b = schedule.tasks[("chain", 0, "b")]
        c = schedule.tasks[("chain", 0, "c")]
        assert a.finish <= b.start
        assert b.finish <= c.start

    def test_cross_pe_edge_takes_link_time(self, small_library, tiny_spec):
        same = schedule_spec(tiny_spec, small_library, {
            "chain/s0000": ("CPU#0", 0),
            "chain/s0001": ("CPU#0", 0),
            "chain/s0002": ("CPU#0", 0),
        })[0]
        split = schedule_spec(tiny_spec, small_library, {
            "chain/s0000": ("CPU#0", 0),
            "chain/s0001": ("CPU#1", 0),
            "chain/s0002": ("CPU#0", 0),
        })[0]
        # Same-PE transfers are free; the split run pays link time.
        edge_same = same.edges[("chain", 0, "a", "b")]
        edge_split = split.edges[("chain", 0, "a", "b")]
        assert edge_same.link_id is None
        assert edge_split.link_id is not None
        assert edge_split.finish > edge_split.start

    def test_every_instance_scheduled(self, small_library, tiny_spec):
        placements = {name: ("CPU#0", 0) for name in (
            "chain/s0000", "chain/s0001", "chain/s0002")}
        schedule, _, _, assoc = schedule_spec(tiny_spec, small_library, placements)
        assert len(schedule.tasks) == 3 * assoc.n_explicit("chain")


class TestProcessorContention:
    def test_serialization(self, small_library):
        g = TaskGraph(name="p", period=0.1, deadline=0.1)
        g.add_task(sw("x", 2e-3))
        g.add_task(sw("y", 2e-3))
        spec = SystemSpec("s", [g])
        schedule, *_ = schedule_spec(spec, small_library, {
            "p/s0000": ("CPU#0", 0), "p/s0001": ("CPU#0", 0),
        })
        x = schedule.tasks[("p", 0, "x")]
        y = schedule.tasks[("p", 0, "y")]
        assert x.finish <= y.start or y.finish <= x.start

    def test_context_switch_charged(self, small_library):
        g = TaskGraph(name="p", period=0.1, deadline=0.1)
        g.add_task(sw("x", 2e-3))
        spec = SystemSpec("s", [g])
        schedule, *_ = schedule_spec(spec, small_library, {"p/s0000": ("CPU#0", 0)})
        x = schedule.tasks[("p", 0, "x")]
        cs = small_library.pe_type("CPU").context_switch_time
        assert x.finish - x.start == pytest.approx(2e-3 + cs)

    def test_preemption_splits_around_reservations(self, small_library):
        # Two short urgent tasks reserve slots around time 5 ms and
        # 10 ms; a long low-priority task then splits across the gaps
        # (runs, is preempted, resumes with overhead) instead of
        # waiting behind everything.
        g = TaskGraph(name="p", period=0.1, deadline=0.1)
        g.add_task(Task(name="long", exec_times={"CPU": 8e-3},
                        memory=MemoryRequirement(program=10)))
        h = TaskGraph(name="q", period=0.1, deadline=6e-3, est=5e-3)
        h.add_task(Task(name="u1", exec_times={"CPU": 1e-3},
                        memory=MemoryRequirement(program=10)))
        spec = SystemSpec("s", [g, h])
        schedule, *_ = schedule_spec(spec, small_library, {
            "p/s0000": ("CPU#0", 0),
            "q/s0000": ("CPU#0", 0),
        })
        longtask = schedule.tasks[("p", 0, "long")]
        urgent = schedule.tasks[("q", 0, "u1")]
        overhead = small_library.pe_type("CPU").preemption_overhead
        assert schedule.preemptions == 1
        assert longtask.preempted
        assert longtask.start == 0.0  # started before the reservation
        # Finish accounts for the urgent slot plus one resumption.
        assert longtask.finish == pytest.approx(
            8e-3
            + small_library.pe_type("CPU").context_switch_time
            + (urgent.finish - urgent.start)
            + overhead,
            rel=1e-6,
        )

    def test_preemption_disabled(self, small_library):
        g = TaskGraph(name="p", period=0.1, deadline=0.1)
        g.add_task(Task(name="long", exec_times={"CPU": 50e-3},
                        memory=MemoryRequirement(program=10)))
        h = TaskGraph(name="q", period=0.1, deadline=0.06, est=1e-3)
        h.add_task(Task(name="urgent", exec_times={"CPU": 0.5e-3},
                        memory=MemoryRequirement(program=10)))
        spec = SystemSpec("s", [g, h])
        schedule, *_ = schedule_spec(spec, small_library, {
            "p/s0000": ("CPU#0", 0), "q/s0000": ("CPU#0", 0),
        }, preemption=False)
        assert schedule.preemptions == 0
        urgent = schedule.tasks[("q", 0, "urgent")]
        assert urgent.start >= 50e-3  # waits for the long task


class TestPpeModes:
    def hw(self, name, est, mode_graph):
        g = TaskGraph(name=name, period=1.0, deadline=0.5, est=est)
        g.add_task(Task(name=name + ".t", exec_times={"FPGA": 1e-3},
                        area_gates=100, pins=4))
        return g

    def test_mode_switch_inserts_boot(self, small_library):
        ga = self.hw("ga", 0.0, 0)
        gb = self.hw("gb", 0.5, 1)
        spec = SystemSpec("s", [ga, gb])
        boot = lambda pe, mode: 0.05
        schedule, *_ = schedule_spec(spec, small_library, {
            "ga/s0000": ("FPGA#0", 0), "gb/s0000": ("FPGA#0", 1),
        }, boot_time_fn=boot)
        assert schedule.reconfigurations >= 1
        tl = schedule.ppe_timelines["FPGA#0"]
        assert tl.boot_time_total > 0

    def test_same_mode_no_reconfig(self, small_library):
        ga = self.hw("ga", 0.0, 0)
        gb = self.hw("gb", 0.5, 0)
        spec = SystemSpec("s", [ga, gb])
        schedule, *_ = schedule_spec(spec, small_library, {
            "ga/s0000": ("FPGA#0", 0), "gb/s0000": ("FPGA#0", 0),
        }, boot_time_fn=lambda pe, mode: 0.05)
        assert schedule.reconfigurations == 0


class TestVirtualPlacement:
    def test_unallocated_cluster_scheduled_virtually(self, small_library, tiny_spec):
        # Only the first cluster is placed; the rest go virtual.
        schedule, *_ = schedule_spec(tiny_spec, small_library, {
            "chain/s0000": ("CPU#0", 0),
        })
        b = schedule.tasks[("chain", 0, "b")]
        assert b.pe_id is None
        assert b.finish - b.start == pytest.approx(
            tiny_spec.graph("chain").task("b").min_exec_time
        )


class TestDeadlineEvaluation:
    def test_all_met_for_feasible_chain(self, small_library, tiny_spec):
        placements = {name: ("CPU#0", 0) for name in (
            "chain/s0000", "chain/s0001", "chain/s0002")}
        schedule, clustering, arch, assoc = schedule_spec(
            tiny_spec, small_library, placements)
        report = evaluate_deadlines(schedule, tiny_spec, assoc)
        assert report.all_met
        assert report.max_lateness == 0.0

    def test_missed_deadline_reported(self, small_library):
        g = TaskGraph(name="m", period=0.1, deadline=1e-4)  # impossible
        g.add_task(sw("x", 5e-3))
        spec = SystemSpec("s", [g])
        schedule, clustering, arch, assoc = schedule_spec(
            spec, small_library, {"m/s0000": ("CPU#0", 0)})
        report = evaluate_deadlines(schedule, spec, assoc)
        assert not report.all_met
        assert report.n_missed > 0
        assert report.max_lateness > 0
        assert report.total_lateness > 0

    def test_overload_detected(self, small_library):
        # One CPU, utilization > 1 across copies: per-copy exec 60 ms
        # on a 50 ms period.
        g = TaskGraph(name="o", period=0.05, deadline=0.1)
        g.add_task(sw("x", 0.06))
        spec = SystemSpec("s", [g])
        schedule, clustering, arch, assoc = schedule_spec(
            spec, small_library, {"o/s0000": ("CPU#0", 0)})
        report = evaluate_deadlines(schedule, spec, assoc)
        assert report.overloaded
        assert not report.all_met

    def test_badness_ordering(self, small_library):
        g = TaskGraph(name="m", period=0.1, deadline=1e-4)
        g.add_task(sw("x", 5e-3))
        spec = SystemSpec("s", [g])
        schedule, clustering, arch, assoc = schedule_spec(
            spec, small_library, {"m/s0000": ("CPU#0", 0)})
        bad = evaluate_deadlines(schedule, spec, assoc).badness()
        assert bad > (0, 0.0)
