"""System specification: the complete co-synthesis input.

A :class:`SystemSpec` bundles the periodic task graphs with the
system-wide constraints the paper requires a priori: the boot-time
requirement for reconfigurable devices (Section 4.4), the optional
compatibility vectors between task graphs (Section 4.1), and the
availability requirements per task graph for CRUSADE-FT (Section 6).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.errors import SpecificationError
from repro.graph.taskgraph import TaskGraph
from repro.units import require_finite


class SystemSpec:
    """The embedded-system specification fed to CRUSADE.

    Parameters
    ----------
    name:
        Human-readable system name (appears in reports).
    graphs:
        The periodic task graphs specifying system functionality.
    compatibility:
        Optional explicit compatibility relation: a set of unordered
        task-graph name pairs that are *compatible* (their execution
        windows never overlap, so they may time-share a reconfigurable
        device).  ``None`` asks the co-synthesis system to detect
        compatibility automatically from the schedule, per Figure 3.
    boot_time_requirement:
        Maximum acceptable reconfiguration (boot) time in seconds for
        any programmable device, specified a priori per Section 4.4.
    unavailability:
        CRUSADE-FT only: mapping of task-graph name to the maximum
        tolerated downtime in minutes per year.
    """

    def __init__(
        self,
        name: str,
        graphs: Iterable[TaskGraph],
        compatibility: Optional[Iterable[Tuple[str, str]]] = None,
        boot_time_requirement: float = 0.2,
        unavailability: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Hold the graphs and constraints; an empty name or graph
        list, a duplicate graph name, or a constraint that names an
        unknown graph or is out of range raises
        :class:`SpecificationError`."""
        if not name:
            raise SpecificationError("system name must be non-empty")
        self.name = name
        self._graphs: Dict[str, TaskGraph] = {}
        for graph in graphs:
            if graph.name in self._graphs:
                raise SpecificationError(
                    "duplicate task graph %r in system %r" % (graph.name, name)
                )
            self._graphs[graph.name] = graph
        if not self._graphs:
            raise SpecificationError("system %r has no task graphs" % (name,))
        if not 0 < boot_time_requirement < math.inf:
            require_finite(boot_time_requirement, "boot-time requirement")
            raise SpecificationError(
                "boot-time requirement must be positive, got %r"
                % (boot_time_requirement,)
            )
        self.boot_time_requirement = float(boot_time_requirement)
        self._compat: Optional[FrozenSet[FrozenSet[str]]] = None
        if compatibility is not None:
            pairs = set()
            for a, b in compatibility:
                for g in (a, b):
                    if g not in self._graphs:
                        raise SpecificationError(
                            "compatibility names unknown graph %r" % (g,)
                        )
                if a == b:
                    raise SpecificationError(
                        "graph %r declared compatible with itself" % (a,)
                    )
                pairs.add(frozenset((a, b)))
            self._compat = frozenset(pairs)
        self.unavailability: Dict[str, float] = {}
        if unavailability:
            for graph_name, minutes in unavailability.items():
                if graph_name not in self._graphs:
                    raise SpecificationError(
                        "unavailability names unknown graph %r" % (graph_name,)
                    )
                if not 0 <= minutes < math.inf:
                    require_finite(
                        minutes, "unavailability for %r", graph_name
                    )
                    raise SpecificationError(
                        "unavailability for %r must be non-negative" % (graph_name,)
                    )
                self.unavailability[graph_name] = float(minutes)

    # ------------------------------------------------------------------
    @property
    def graphs(self) -> Dict[str, TaskGraph]:
        """Mapping of graph name to :class:`TaskGraph` (do not mutate)."""
        return self._graphs

    def graph(self, name: str) -> TaskGraph:
        """Look up a task graph by name."""
        try:
            return self._graphs[name]
        except KeyError:
            raise SpecificationError(
                "no task graph %r in system %r" % (name, self.name)
            ) from None

    def graph_names(self) -> List[str]:
        """Sorted task-graph names."""
        return sorted(self._graphs)

    @property
    def total_tasks(self) -> int:
        """Total number of tasks across all graphs."""
        return sum(len(g) for g in self._graphs.values())

    @property
    def has_explicit_compatibility(self) -> bool:
        """True when compatibility vectors were specified a priori."""
        return self._compat is not None

    def compatible(self, a: str, b: str) -> Optional[bool]:
        """Explicit compatibility of graphs ``a`` and ``b``.

        Returns ``True``/``False`` when compatibility vectors were
        specified, or ``None`` when they were not and the co-synthesis
        system must detect non-overlap automatically (Section 4.1).
        """
        for g in (a, b):
            if g not in self._graphs:
                raise SpecificationError("unknown graph %r" % (g,))
        if self._compat is None:
            return None
        if a == b:
            return False
        return frozenset((a, b)) in self._compat

    def compatibility_vector(self, name: str) -> Dict[str, int]:
        """The paper's compatibility vector for graph ``name``.

        Returns a mapping of other-graph name to 0 (compatible) or 1
        (incompatible), matching the paper's Delta encoding.  Only
        valid when explicit compatibility was specified.
        """
        if self._compat is None:
            raise SpecificationError(
                "system %r has no explicit compatibility vectors" % (self.name,)
            )
        return {
            other: 0 if self.compatible(name, other) else 1
            for other in self.graph_names()
            if other != name
        }

    def periods(self) -> List[float]:
        """Periods of all graphs, in graph-name order."""
        return [self._graphs[n].period for n in self.graph_names()]

    def __repr__(self) -> str:
        return "SystemSpec(%r, %d graphs, %d tasks)" % (
            self.name,
            len(self._graphs),
            self.total_tasks,
        )
