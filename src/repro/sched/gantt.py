"""Text Gantt charts for schedules.

Renders one hyperperiod of a schedule as fixed-width timelines, one row
per resource -- task executions on processors/PPEs, mode windows and
reboots on programmable devices, transfers on links.  Useful for
eyeballing what the scheduler actually did (the examples print these).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sched.scheduler import Schedule

#: Glyphs: execution, reboot, idle.
_EXEC = "#"
_BOOT = "!"
_IDLE = "."


def _scale(width: int, span: Tuple[float, float]):
    lo, hi = span
    extent = max(hi - lo, 1e-12)

    def to_col(t: float) -> int:
        """Column of time ``t``, clamped to ``[0, width]``."""
        col = int((t - lo) / extent * width)
        return max(0, min(width, col))

    return to_col


def _paint(row: List[str], to_col, start: float, end: float, glyph: str) -> None:
    a, b = to_col(start), to_col(end)
    if b <= a:
        b = a + 1
    for i in range(a, min(b, len(row))):
        row[i] = glyph


def render_gantt(
    schedule: Schedule,
    width: int = 72,
    span: Optional[Tuple[float, float]] = None,
    copy: Optional[int] = 0,
) -> str:
    """Render a schedule as a text Gantt chart.

    Parameters
    ----------
    width:
        Chart width in characters.
    span:
        (start, end) time window; defaults to the full schedule span.
    copy:
        Restrict to one copy index (None = all copies).
    """
    if width < 10:
        raise ValueError("gantt width must be at least 10 columns")
    placements = [
        p
        for p in schedule.tasks.values()
        if p.pe_id is not None and (copy is None or p.key[1] == copy)
    ]
    transfers = [
        e
        for e in schedule.edges.values()
        if e.link_id is not None and (copy is None or e.key[1] == copy)
    ]
    if span is None:
        times = [p.start for p in placements] + [p.finish for p in placements]
        times += [e.start for e in transfers] + [e.finish for e in transfers]
        if not times:
            return "(empty schedule)"
        span = (min(times), max(times))
    to_col = _scale(width, span)

    rows: Dict[str, List[str]] = {}

    def row_for(resource: str) -> List[str]:
        """The resource's row, created idle on first use."""
        return rows.setdefault(resource, [_IDLE] * width)

    for placed in placements:
        _paint(row_for(placed.pe_id), to_col, placed.start, placed.finish, _EXEC)
    for pe_id, timeline in schedule.ppe_timelines.items():
        row = row_for(pe_id)
        previous = None
        for window in timeline.windows:
            if previous is not None and previous.mode != window.mode:
                _paint(row, to_col, window.start - window.boot_time,
                       window.start, _BOOT)
            # Mark windows with their mode digit where idle.
            a, b = to_col(window.start), max(to_col(window.end), to_col(window.start) + 1)
            glyph = str(window.mode % 10)
            for i in range(a, min(b, width)):
                if row[i] == _IDLE:
                    row[i] = glyph
            previous = window
    for edge in transfers:
        _paint(row_for(edge.link_id), to_col, edge.start, edge.finish, _EXEC)

    label_width = max((len(r) for r in rows), default=0)
    lines = [
        "time [%.6fs .. %.6fs], '%s'=busy '%s'=reboot digits=mode window"
        % (span[0], span[1], _EXEC, _BOOT)
    ]
    for resource in sorted(rows):
        lines.append("%s |%s|" % (resource.ljust(label_width), "".join(rows[resource])))
    return "\n".join(lines)


def utilization_summary(schedule: Schedule, hyperperiod: float) -> str:
    """Per-resource busy-time utilization over the scheduled span."""
    lines = ["resource utilization (busy / hyperperiod %.6fs):" % hyperperiod]
    seen = []
    for pe_id, timeline in sorted(schedule.proc_timelines.items()):
        seen.append((pe_id, timeline.busy_time()))
    for pe_id, timeline in sorted(schedule.ppe_timelines.items()):
        seen.append((pe_id, timeline.busy_time()))
    for link_id, timeline in sorted(schedule.link_timelines.items()):
        seen.append((link_id, timeline.busy_time()))
    for resource, busy in seen:
        lines.append(
            "  %-16s %6.1f%%" % (resource, 100.0 * busy / max(hyperperiod, 1e-12))
        )
    return "\n".join(lines)
