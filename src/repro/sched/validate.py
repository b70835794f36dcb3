"""Independent schedule validation.

The scheduler is trusted nowhere: this module re-derives every
invariant a CRUSADE schedule must satisfy directly from the schedule
data and the specification, without reusing the scheduler's own
bookkeeping.  It is used by the test suite's property checks and by
:func:`repro.core.report.CoSynthesisResult` consumers who want a
machine-checkable certificate for a synthesized system.

Invariants checked
------------------
1. **Coverage** -- every explicit copy instance of every task is
   scheduled exactly once, and every edge instance has a transfer
   record.
2. **Release** -- no task instance starts before its copy's arrival.
3. **Precedence** -- a task starts no earlier than each incoming edge's
   transfer finish, which itself starts no earlier than the producer's
   finish.
4. **Processor exclusivity** -- intervals of task instances placed on
   one processor never overlap (split/preempted tasks are exempt from
   the simple containment check but still must not exceed their span).
5. **Link exclusivity** -- transfer intervals on one link never
   overlap.
6. **Mode consistency** -- a PPE executes a task only inside a window
   of a mode whose configuration contains the task's cluster, and
   windows of different modes are separated by at least the boot time
   recorded for the later window.
7. **Durations** -- every non-preempted task instance occupies at
   least its WCET on its placement (plus dispatch overhead on
   processors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.cluster.clustering import ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.resources.pe import PEKind, ProcessorType
from repro.sched.scheduler import Schedule
from repro.units import TIME_EPS


@dataclass
class ValidationReport:
    """Outcome of a validation run: a list of violation strings."""

    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violation was found."""
        return not self.violations

    def add(self, message: str) -> None:
        """Record one violation."""
        self.violations.append(message)

    def __repr__(self) -> str:
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(%d violations; first: %s)" % (
            len(self.violations),
            self.violations[0],
        )


def validate_schedule(
    schedule: Schedule,
    spec: SystemSpec,
    assoc: AssociationArray,
    clustering: ClusteringResult,
    arch: Architecture,
) -> ValidationReport:
    """Check every schedule invariant; returns the violation list."""
    report = ValidationReport()
    _check_coverage(report, schedule, spec, assoc)
    _check_release_and_precedence(report, schedule, spec, assoc)
    _check_serial_resources(report, schedule, arch)
    _check_modes(report, schedule, spec, clustering, arch)
    _check_durations(report, schedule, spec, clustering, arch)
    return report


# ----------------------------------------------------------------------
def _check_coverage(report, schedule, spec, assoc) -> None:
    for instance in assoc.iter_explicit():
        graph = spec.graph(instance.graph)
        for task_name in graph.tasks:
            key = (instance.graph, instance.copy, task_name)
            if key not in schedule.tasks:
                report.add("task instance %r not scheduled" % (key,))
        for (src, dst) in graph.edges:
            edge_key = (instance.graph, instance.copy, src, dst)
            if edge_key not in schedule.edges:
                report.add("edge instance %r not scheduled" % (edge_key,))


def _check_release_and_precedence(report, schedule, spec, assoc) -> None:
    arrivals = {
        (c.graph, c.copy): c.arrival for c in assoc.iter_explicit()
    }
    for key, placed in schedule.tasks.items():
        graph_name, copy, task_name = key
        arrival = arrivals.get((graph_name, copy))
        if arrival is None:
            continue
        if placed.start < arrival - TIME_EPS:
            report.add(
                "task %r starts %.9f before arrival %.9f"
                % (key, placed.start, arrival)
            )
        graph = spec.graph(graph_name)
        for pred in graph.predecessors(task_name):
            edge_key = (graph_name, copy, pred, task_name)
            edge = schedule.edges.get(edge_key)
            pred_placed = schedule.tasks.get((graph_name, copy, pred))
            if edge is None or pred_placed is None:
                continue
            if edge.start < pred_placed.finish - TIME_EPS:
                report.add(
                    "edge %r starts before producer finishes" % (edge_key,)
                )
            if placed.start < edge.finish - TIME_EPS:
                report.add(
                    "task %r starts before edge %r arrives" % (key, edge_key)
                )


def _intervals_overlap(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    return a[0] < b[1] - TIME_EPS and b[0] < a[1] - TIME_EPS


def _check_serial_resources(report, schedule, arch) -> None:
    # Processors: non-preempted tasks must not overlap one another.
    by_pe: Dict[str, List] = {}
    for placed in schedule.tasks.values():
        if placed.pe_id is None or placed.pe_id not in arch.pes:
            continue
        if arch.pe(placed.pe_id).pe_type.kind is PEKind.PROCESSOR:
            by_pe.setdefault(placed.pe_id, []).append(placed)
    for pe_id, placements in by_pe.items():
        solid = sorted(
            (p for p in placements if not p.preempted),
            key=lambda p: p.start,
        )
        for a, b in zip(solid, solid[1:]):
            if _intervals_overlap((a.start, a.finish), (b.start, b.finish)):
                report.add(
                    "processor %s runs %r and %r simultaneously"
                    % (pe_id, a.key, b.key)
                )
    # Links: transfers serialize.
    by_link: Dict[str, List] = {}
    for edge in schedule.edges.values():
        if edge.link_id is not None:
            by_link.setdefault(edge.link_id, []).append(edge)
    for link_id, transfers in by_link.items():
        ordered = sorted(transfers, key=lambda e: e.start)
        for a, b in zip(ordered, ordered[1:]):
            if _intervals_overlap((a.start, a.finish), (b.start, b.finish)):
                report.add(
                    "link %s carries %r and %r simultaneously"
                    % (link_id, a.key, b.key)
                )


def _check_modes(report, schedule, spec, clustering, arch) -> None:
    for pe_id, timeline in schedule.ppe_timelines.items():
        windows = timeline.windows
        # Windows ordered, non-overlapping, boot gaps respected.
        for a, b in zip(windows, windows[1:]):
            if a.end > b.start + TIME_EPS:
                report.add("PPE %s windows overlap" % (pe_id,))
            if a.mode != b.mode and b.start - a.end < b.boot_time - TIME_EPS:
                report.add(
                    "PPE %s switches modes %d->%d with gap %.6f < boot %.6f"
                    % (pe_id, a.mode, b.mode, b.start - a.end, b.boot_time)
                )
        if pe_id not in arch.pes:
            continue
        pe = arch.pe(pe_id)
        for placed in schedule.tasks.values():
            if placed.pe_id != pe_id:
                continue
            graph_name, _, task_name = placed.key
            cluster = clustering.cluster_of(graph_name, task_name)
            try:
                allowed = set(pe.modes_of_cluster(cluster.name))
            except Exception:  # pragma: no cover - stale placement
                report.add(
                    "task %r on %s has no cluster placement" % (placed.key, pe_id)
                )
                continue
            covered = any(
                w.mode in allowed
                and w.start <= placed.start + TIME_EPS
                and placed.finish <= w.end + TIME_EPS
                for w in windows
            )
            if not covered:
                report.add(
                    "task %r executes outside any window of its modes %s"
                    % (placed.key, sorted(allowed))
                )


def _check_durations(report, schedule, spec, clustering, arch) -> None:
    for key, placed in schedule.tasks.items():
        graph_name, _, task_name = key
        task = spec.graph(graph_name).task(task_name)
        span = placed.finish - placed.start
        if placed.pe_id is None:
            expected = task.min_exec_time
            if span < expected - TIME_EPS:
                report.add("virtual task %r shorter than best case" % (key,))
            continue
        if placed.pe_id not in arch.pes:
            report.add("task %r placed on unknown PE %r" % (key, placed.pe_id))
            continue
        pe_type = arch.pe(placed.pe_id).pe_type
        expected = task.wcet_on(pe_type.name)
        if isinstance(pe_type, ProcessorType):
            expected += pe_type.context_switch_time
        if span < expected - TIME_EPS:
            report.add(
                "task %r span %.9f below required %.9f on %s"
                % (key, span, expected, pe_type.name)
            )
