"""Task model: the atomic unit of embedded-system behaviour.

Section 2.2 of the paper characterizes each task by an execution-time
vector (worst-case execution time per PE type), a preference vector, an
exclusion vector, and a memory vector.  For hardware mapping the task
additionally carries a gate-equivalent area and a pin requirement; for
the fault-tolerance extension it carries the set of available assertion
checks and its error-transparency flag (Section 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.errors import SpecificationError
from repro.units import require_finite


@dataclass(frozen=True)
class MemoryRequirement:
    """Storage needed by a task when mapped to a general-purpose
    processor, split the way the paper's memory vector is: program
    store, data store and stack store, all in bytes.
    """

    program: int = 0
    data: int = 0
    stack: int = 0

    def __post_init__(self) -> None:
        for label in ("program", "data", "stack"):
            value = getattr(self, label)
            if not 0 <= value < math.inf:
                require_finite(value, "memory requirement %s", label)
                raise SpecificationError(
                    "memory requirement %s must be non-negative" % label
                )

    @property
    def total(self) -> int:
        """Total bytes of storage across all three segments."""
        return self.program + self.data + self.stack

    def __add__(self, other: "MemoryRequirement") -> "MemoryRequirement":
        return MemoryRequirement(
            program=self.program + other.program,
            data=self.data + other.data,
            stack=self.stack + other.stack,
        )


@dataclass(frozen=True)
class AssertionSpec:
    """One assertion check available for a task (Section 6).

    An assertion task checks an inherent property of the checked task's
    output (parity, address range, checksum, ...).  ``coverage`` is the
    fraction of faults in the checked task that the assertion detects.
    ``exec_times`` is the check task's execution vector and
    ``comm_bytes`` the weight of the edge from the checked task to the
    check task, both specified a priori per the paper.
    """

    name: str
    coverage: float
    exec_times: Mapping[str, float] = field(default_factory=dict)
    comm_bytes: int = 64

    def __post_init__(self) -> None:
        for pe_type, wcet in self.exec_times.items():
            if wcet is not None and not 0 < wcet < math.inf:
                require_finite(
                    wcet, "assertion %r execution time on PE type %r",
                    self.name, pe_type,
                )
                raise SpecificationError(
                    "assertion %r has non-positive execution time %r on "
                    "PE type %r" % (self.name, wcet, pe_type)
                )
        if not 0.0 < self.coverage <= 1.0:
            raise SpecificationError(
                "assertion %r coverage must be in (0, 1], got %r"
                % (self.name, self.coverage)
            )
        if not 0 <= self.comm_bytes < math.inf:
            require_finite(self.comm_bytes, "assertion %r comm_bytes", self.name)
            raise SpecificationError(
                "assertion %r comm_bytes must be non-negative" % (self.name,)
            )


@dataclass(frozen=True)
class Task:
    """A task node of a periodic task graph.

    Parameters
    ----------
    name:
        Identifier, unique within its task graph.
    exec_times:
        The execution-time vector: worst-case execution time in seconds
        on each PE *type* (by PE-type name).  A PE type absent from the
        mapping, or mapped to ``None``, cannot execute the task.
    preference:
        The preference vector: PE-type name to a weight in [0, 1].
        Higher is preferred; a weight of 0 forbids the mapping even if
        an execution time exists (the paper uses this for PEs lacking a
        special resource).  PE types not listed default to weight 1.
    exclusions:
        The exclusion vector: names of tasks that must not share a PE
        with this task (processing-bottleneck pairs).
    memory:
        Storage needed when mapped to a general-purpose processor.
    area_gates:
        Gate-equivalent area consumed when mapped to an ASIC, FPGA or
        CPLD.
    pins:
        Device pins consumed when mapped to hardware.
    deadline:
        Optional deadline in seconds relative to the task graph's
        earliest start time.  Usually only sink tasks carry deadlines;
        the graph-level deadline applies to sinks without one.
    assertions:
        Assertion checks available for fault detection (Section 6).  An
        empty tuple means no assertion exists and CRUSADE-FT falls back
        to duplicate-and-compare.
    error_transparent:
        True when the task transmits any error at its inputs to its
        outputs, allowing checks to be shared downstream.
    """

    name: str
    exec_times: Mapping[str, Optional[float]]
    preference: Mapping[str, float] = field(default_factory=dict)
    exclusions: frozenset = frozenset()
    memory: MemoryRequirement = MemoryRequirement()
    area_gates: int = 0
    pins: int = 0
    deadline: Optional[float] = None
    assertions: Tuple[AssertionSpec, ...] = ()
    error_transparent: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("task name must be non-empty")
        if not self.exec_times:
            raise SpecificationError(
                "task %r has an empty execution-time vector" % (self.name,)
            )
        for pe_type, wcet in self.exec_times.items():
            if wcet is not None and not 0 < wcet < math.inf:
                require_finite(
                    wcet, "task %r WCET on PE type %r", self.name, pe_type
                )
                raise SpecificationError(
                    "task %r has non-positive WCET %r on PE type %r"
                    % (self.name, wcet, pe_type)
                )
        for pe_type, weight in self.preference.items():
            if not 0.0 <= weight <= 1.0:
                raise SpecificationError(
                    "task %r preference for %r must be in [0, 1], got %r"
                    % (self.name, pe_type, weight)
                )
        if not 0 <= self.area_gates < math.inf:
            require_finite(self.area_gates, "task %r area_gates", self.name)
            raise SpecificationError(
                "task %r area_gates must be non-negative" % (self.name,)
            )
        if not 0 <= self.pins < math.inf:
            require_finite(self.pins, "task %r pins", self.name)
            raise SpecificationError("task %r pins must be non-negative" % (self.name,))
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            require_finite(self.deadline, "task %r deadline", self.name)
            raise SpecificationError(
                "task %r deadline must be positive, got %r" % (self.name, self.deadline)
            )
        if self.name in self.exclusions:
            raise SpecificationError("task %r excludes itself" % (self.name,))

    def can_run_on(self, pe_type: str) -> bool:
        """True when the task has a WCET on ``pe_type`` and its
        preference vector does not forbid the mapping.
        """
        wcet = self.exec_times.get(pe_type)
        if wcet is None:
            return False
        return self.preference.get(pe_type, 1.0) > 0.0

    def wcet_on(self, pe_type: str) -> float:
        """Worst-case execution time on ``pe_type``.

        Raises :class:`SpecificationError` when the task cannot run
        there; callers should gate on :meth:`can_run_on`.
        """
        wcet = self.exec_times.get(pe_type)
        if wcet is None or not self.can_run_on(pe_type):
            raise SpecificationError(
                "task %r cannot execute on PE type %r" % (self.name, pe_type)
            )
        return wcet

    @property
    def max_exec_time(self) -> float:
        """Largest WCET across all allowed PE types.

        Used for pessimistic priority levels before allocation is
        known (Section 5: "sum up the maximum execution and
        communication times along the longest path").
        """
        allowed = [
            wcet
            for pe_type, wcet in self.exec_times.items()
            if wcet is not None and self.can_run_on(pe_type)
        ]
        if not allowed:
            raise SpecificationError(
                "task %r cannot execute on any PE type" % (self.name,)
            )
        return max(allowed)

    @property
    def min_exec_time(self) -> float:
        """Smallest WCET across all allowed PE types."""
        allowed = [
            wcet
            for pe_type, wcet in self.exec_times.items()
            if wcet is not None and self.can_run_on(pe_type)
        ]
        if not allowed:
            raise SpecificationError(
                "task %r cannot execute on any PE type" % (self.name,)
            )
        return min(allowed)

    def allowed_pe_types(self) -> Tuple[str, ...]:
        """PE-type names this task may be mapped to, sorted by
        decreasing preference weight then name for determinism.
        """
        names = [t for t in self.exec_times if self.can_run_on(t)]
        names.sort(key=lambda t: (-self.preference.get(t, 1.0), t))
        return tuple(names)

    @property
    def hardware_only(self) -> bool:
        """True when every allowed mapping is a hardware one.

        Detected structurally: the task consumes gates but no memory,
        which is how the synthetic workloads mark DSP-style blocks.
        """
        return self.area_gates > 0 and self.memory.total == 0
