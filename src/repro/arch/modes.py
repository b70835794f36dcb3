"""Configuration modes of programmable PEs.

Each FPGA/CPLD instance in the architecture may carry several
*configuration programs*; at any instant the device is in one of its
modes, and switching modes requires a reconfiguration whose duration is
the device boot time (Sections 4.2-4.3).  Non-programmable PEs are
modelled with a single implicit mode so the allocation data structures
stay uniform.
"""

from __future__ import annotations

from typing import Set

from repro.errors import AllocationError
from repro.graph.task import MemoryRequirement


class Mode:
    """One configuration mode of a PE instance.

    Tracks the clusters mapped into the mode and the resources they
    consume.  For programmable PEs and ASICs the relevant capacities
    are gate-equivalents and pins; for processors they are the memory
    vector (a processor always has exactly one mode).
    """

    def __init__(self, index: int) -> None:
        """An empty mode at ``index`` (non-negative)."""
        if index < 0:
            raise AllocationError("mode index must be non-negative")
        self.index = index
        self.clusters: Set[str] = set()
        self.gates_used: int = 0
        self.pins_used: int = 0
        self.memory_used: MemoryRequirement = MemoryRequirement()

    def add_cluster(
        self,
        cluster_name: str,
        gates: int = 0,
        pins: int = 0,
        memory: MemoryRequirement = MemoryRequirement(),
    ) -> None:
        """Account a cluster's resource usage into this mode."""
        if cluster_name in self.clusters:
            raise AllocationError(
                "cluster %r already in mode %d" % (cluster_name, self.index)
            )
        self.clusters.add(cluster_name)
        self.gates_used += gates
        self.pins_used += pins
        self.memory_used = self.memory_used + memory

    def remove_cluster(
        self,
        cluster_name: str,
        gates: int = 0,
        pins: int = 0,
        memory: MemoryRequirement = MemoryRequirement(),
    ) -> None:
        """Reverse :meth:`add_cluster` (used when a trial allocation is
        rejected)."""
        if cluster_name not in self.clusters:
            raise AllocationError(
                "cluster %r not in mode %d" % (cluster_name, self.index)
            )
        self.clusters.discard(cluster_name)
        self.gates_used -= gates
        self.pins_used -= pins
        self.memory_used = MemoryRequirement(
            program=self.memory_used.program - memory.program,
            data=self.memory_used.data - memory.data,
            stack=self.memory_used.stack - memory.stack,
        )

    def clone(self) -> "Mode":
        """Independent copy (cluster set is copied, counters copied)."""
        duplicate = Mode(self.index)
        duplicate.clusters = set(self.clusters)
        duplicate.gates_used = self.gates_used
        duplicate.pins_used = self.pins_used
        duplicate.memory_used = self.memory_used
        return duplicate

    @property
    def empty(self) -> bool:
        """True when no cluster is mapped into this mode."""
        return not self.clusters

    def __repr__(self) -> str:
        return "Mode(%d, %d clusters, %d gates, %d pins)" % (
            self.index,
            len(self.clusters),
            self.gates_used,
            self.pins_used,
        )
