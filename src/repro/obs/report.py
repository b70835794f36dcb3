"""Aggregated synthesis statistics and their renderings.

:class:`SynthesisStats` is the JSON-stable summary a tracer produces
at the end of a run: exclusive per-phase wall-clock seconds and every
counter the instrumented loops incremented.  It round-trips through
plain dicts (``to_dict``/:func:`stats_from_dict`) so
:mod:`repro.io.result_json` can embed it in result exports, and
renders to the text block the CLI's ``--stats`` flag prints.

Counter name prefixes and what they measure:

``alloc.*``
    Allocation-array construction and candidate evaluation (entries
    built, rejected per capacity check, scheduler evaluations).
``sched.*``
    List-scheduler decisions (real vs. virtual placements, preemption
    splits taken/declined).
``merge.*``
    Figure 3 merge loop (candidates, accepts, rejects by reason,
    mode combines) -- ``merge.accepts`` plus all ``merge.rejects.*``
    equals ``merge.candidates``.
``repair.*``
    Post-allocation repair pass (rounds, re-homings tried/kept).
``perf.*``
    Incremental evaluation engine (:mod:`repro.perf`):
    ``perf.schedule.hits`` / ``.misses`` / ``.evictions`` for the
    per-component schedule-fragment cache, ``perf.cow.applies`` /
    ``.commits`` / ``.reverts`` for copy-on-write candidate
    application, ``perf.priorities.recomputed`` / ``.reused`` for
    incremental priority recomputation, and ``perf.plan.hits`` /
    ``.misses`` for the scheduler's per-spec plan cache
    (:mod:`repro.perf.fastsched`).  ``sched.runs`` equals
    ``perf.schedule.misses`` (every scheduler run builds exactly one
    cached fragment).
``perf.store.*``
    The persistent content-addressed synthesis store
    (:mod:`repro.perf.store`): ``perf.store.hit`` / ``.miss`` for the
    full-result tier, ``perf.store.fragments_preloaded`` /
    ``.fragments_saved`` for the cross-run fragment tier,
    ``perf.store.corrupt`` for dropped unusable entries, and
    ``perf.store.graphs_changed`` / ``.graphs_unchanged`` from the
    warm-start spec diff (:mod:`repro.perf.warmstart`).
``perf.cache.*``
    End-of-run gauges snapshotted from
    :meth:`repro.perf.engine.IncrementalEngine.cache_info` (entries,
    capacity, lifetime hits/misses and disk hits) -- set once by the
    finalize stage, not incremented.
``scope.*``
    The fast-inner-loop sub-specification cache
    (``scope.hits`` / ``.misses`` / ``.evictions``).
``stage.*``
    The Figure 5 steps (:func:`repro.core.stages.pipeline.synthesize`):
    ``stage.<name>.runs`` / ``stage.<name>.skipped`` per pipeline
    step, feeding the ``--stats`` per-stage table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Canonical pipeline order for the ``--stats`` stage table, matching
#: the step order of :func:`repro.core.stages.pipeline.synthesize`
#: (kept as data here so the observability layer stays
#: import-independent of the core).
PIPELINE_STAGE_ORDER = (
    "preprocess",
    "clustering",
    "allocation",
    "full_check",
    "repair",
    "merge",
    "interface",
    "finalize",
)


@dataclass
class SynthesisStats:
    """Aggregates from one traced synthesis run."""

    phase_seconds: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    n_events: int = 0
    total_seconds: Optional[float] = None

    def phase_total(self) -> float:
        """Sum of all per-phase seconds (<= total wall time)."""
        return sum(self.phase_seconds.values())

    def counter(self, name: str) -> int:
        """One counter's value (0 when absent)."""
        return self.counters.get(name, 0)

    def counter_total(self, prefix: str) -> int:
        """Sum of counters under a dotted prefix."""
        return sum(v for k, v in self.counters.items() if k.startswith(prefix))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (sorted, version-tagged)."""
        return {
            "version": 1,
            "phase_seconds": {
                k: self.phase_seconds[k] for k in sorted(self.phase_seconds)
            },
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "n_events": self.n_events,
            "total_seconds": self.total_seconds,
        }


def stats_from_dict(payload: Dict[str, Any]) -> SynthesisStats:
    """Rebuild a stats block from its JSON form (inverse of
    :meth:`SynthesisStats.to_dict`)."""
    return SynthesisStats(
        phase_seconds=dict(payload.get("phase_seconds", {})),
        counters=dict(payload.get("counters", {})),
        n_events=payload.get("n_events", 0),
        total_seconds=payload.get("total_seconds"),
    )


def render_stage_table(stats: SynthesisStats) -> List[str]:
    """The pipeline-stage rows of the ``--stats`` block.

    One row per step the pipeline counted, in canonical order:
    run/skip counts, exclusive seconds, and the share of all phased
    time.  Stages the run never reached are omitted; unphased stages
    (finalize) and skipped stages show ``-`` for time.  A nested
    baseline synthesis re-enters the pipeline, so run counts above 1
    are expected for reconfiguration runs.
    """
    lines: List[str] = []
    phase_total = stats.phase_total()
    for name in PIPELINE_STAGE_ORDER:
        runs = stats.counter("stage.%s.runs" % name)
        skipped = stats.counter("stage.%s.skipped" % name)
        seconds = stats.phase_seconds.get(name)
        if not runs and not skipped and seconds is None:
            continue
        if seconds is None:
            timing = "%10s  %5s" % ("-", "-")
        else:
            share = (seconds / phase_total * 100.0) if phase_total else 0.0
            timing = "%9.4fs  %4.1f%%" % (seconds, share)
        lines.append(
            "    %-12s %4d run%s %4d skip  %s"
            % (name, runs, "s" if runs != 1 else " ", skipped, timing)
        )
    return lines


def render_stats(stats: SynthesisStats) -> str:
    """Human-readable stats block (the CLI's ``--stats`` output)."""
    lines: List[str] = ["Synthesis statistics:"]
    stage_lines = render_stage_table(stats)
    if stage_lines:
        lines.append("  pipeline stages (runs/skips, exclusive time):")
        lines.extend(stage_lines)
    lines.append("  phases (exclusive wall-clock):")
    if not stats.phase_seconds:
        lines.append("    (none recorded)")
    for name in sorted(stats.phase_seconds):
        lines.append("    %-22s %10.4fs" % (name, stats.phase_seconds[name]))
    if stats.total_seconds is not None:
        lines.append("    %-22s %10.4fs" % ("total (wall)", stats.total_seconds))
    lines.append("  counters:")
    if not stats.counters:
        lines.append("    (none recorded)")
    for name in sorted(stats.counters):
        lines.append("    %-38s %10d" % (name, stats.counters[name]))
    lines.append("  events emitted: %d" % stats.n_events)
    return "\n".join(lines)
