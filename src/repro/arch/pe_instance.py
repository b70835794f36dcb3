"""PE instances: instantiated processing elements of an architecture.

``FPGA_j^i`` in the paper denotes the i-th instance, j-th mode of an
FPGA type; here a :class:`PEInstance` is the instance and carries its
:class:`~repro.arch.modes.Mode` list.  Processors and ASICs have a
single mode.  The instance also resolves the DRAM bank a processor
needs for the memory mapped onto it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AllocationError
from repro.arch.modes import Mode
from repro.graph.task import MemoryRequirement
from repro.resources.pe import MemoryBank, PEType, PpeType, ProcessorType


class PEInstance:
    """One instantiated PE in the architecture.

    Parameters
    ----------
    instance_id:
        Unique id within the architecture, e.g. ``"XC4025#2"``.
    pe_type:
        The library PE type instantiated.
    """

    def __init__(self, instance_id: str, pe_type: PEType) -> None:
        if not instance_id:
            raise AllocationError("PE instance id must be non-empty")
        self.id = instance_id
        self.pe_type = pe_type
        self.modes: List[Mode] = [Mode(0)]
        #: cluster name -> primary mode index holding it
        self.cluster_modes: Dict[str, int] = {}
        #: cluster name -> additional modes carrying a *replica* of its
        #: circuit.  Figure 2(e): T1 is present in both configurations
        #: of the device so it keeps running across mode switches of
        #: the others.  Replicas consume gates/pins in their modes.
        self.replica_modes: Dict[str, Set[int]] = {}

    # ------------------------------------------------------------------
    @property
    def is_programmable(self) -> bool:
        """True for FPGA/CPLD instances."""
        return self.pe_type.is_programmable

    @property
    def is_processor(self) -> bool:
        """True for general-purpose processor instances."""
        return isinstance(self.pe_type, ProcessorType)

    @property
    def n_modes(self) -> int:
        """Number of configuration modes (1 unless programmable)."""
        return len(self.modes)

    def mode(self, index: int) -> Mode:
        """Mode by index."""
        if not 0 <= index < len(self.modes):
            raise AllocationError(
                "PE %r has no mode %d (has %d)" % (self.id, index, len(self.modes))
            )
        return self.modes[index]

    def new_mode(self) -> Mode:
        """Append a fresh configuration mode (programmable PEs only)."""
        if not self.is_programmable:
            raise AllocationError(
                "PE %r of type %r is not programmable; cannot add modes"
                % (self.id, self.pe_type.name)
            )
        mode = Mode(len(self.modes))
        self.modes.append(mode)
        return mode

    def mode_of_cluster(self, cluster_name: str) -> int:
        """Mode index holding ``cluster_name``."""
        try:
            return self.cluster_modes[cluster_name]
        except KeyError:
            raise AllocationError(
                "cluster %r not on PE %r" % (cluster_name, self.id)
            ) from None

    def clusters(self) -> List[str]:
        """All clusters mapped to this instance (sorted)."""
        return sorted(self.cluster_modes)

    def modes_of_cluster(self, cluster_name: str) -> Tuple[int, ...]:
        """Every mode whose configuration contains the cluster:
        primary first, then replicas in ascending order."""
        primary = self.mode_of_cluster(cluster_name)
        replicas = sorted(self.replica_modes.get(cluster_name, ()))
        return (primary,) + tuple(r for r in replicas if r != primary)

    @property
    def has_replicas(self) -> bool:
        """True when any cluster is replicated across modes."""
        return any(self.replica_modes.values())

    def add_replica(
        self, cluster_name: str, mode_index: int, gates: int = 0, pins: int = 0
    ) -> None:
        """Replicate an allocated cluster's circuit into another mode."""
        primary = self.mode_of_cluster(cluster_name)
        if mode_index == primary:
            raise AllocationError(
                "cluster %r already primary in mode %d" % (cluster_name, mode_index)
            )
        existing = self.replica_modes.setdefault(cluster_name, set())
        if mode_index in existing:
            raise AllocationError(
                "cluster %r already replicated in mode %d"
                % (cluster_name, mode_index)
            )
        self.mode(mode_index).add_cluster(cluster_name, gates, pins)
        existing.add(mode_index)

    # ------------------------------------------------------------------
    def assign_cluster(
        self,
        cluster_name: str,
        mode_index: int = 0,
        gates: int = 0,
        pins: int = 0,
        memory: MemoryRequirement = MemoryRequirement(),
    ) -> None:
        """Map a cluster into a mode of this instance.

        Resource feasibility is the allocator's job (see
        :mod:`repro.alloc.capacity`); this method only does the
        bookkeeping and rejects double assignment.
        """
        if cluster_name in self.cluster_modes:
            raise AllocationError(
                "cluster %r already on PE %r" % (cluster_name, self.id)
            )
        self.mode(mode_index).add_cluster(cluster_name, gates, pins, memory)
        self.cluster_modes[cluster_name] = mode_index

    def remove_cluster(
        self,
        cluster_name: str,
        gates: int = 0,
        pins: int = 0,
        memory: MemoryRequirement = MemoryRequirement(),
    ) -> None:
        """Reverse :meth:`assign_cluster`, dropping replicas too."""
        mode_index = self.mode_of_cluster(cluster_name)
        self.mode(mode_index).remove_cluster(cluster_name, gates, pins, memory)
        del self.cluster_modes[cluster_name]
        for replica_mode in sorted(self.replica_modes.pop(cluster_name, ())):
            self.mode(replica_mode).remove_cluster(cluster_name, gates, pins)

    # ------------------------------------------------------------------
    # capacity views
    # ------------------------------------------------------------------
    @property
    def memory_demand(self) -> MemoryRequirement:
        """Total memory mapped onto this instance (processors)."""
        return self.modes[0].memory_used

    def memory_bank(self) -> Optional[MemoryBank]:
        """The DRAM bank this processor instance needs, or None.

        None is returned both for non-processors and for processors
        whose mapped tasks need no external memory.
        """
        if not isinstance(self.pe_type, ProcessorType):
            return None
        demand = self.memory_demand.total
        if demand == 0:
            return None
        bank = self.pe_type.smallest_bank_for(demand)
        if bank is None:
            raise AllocationError(
                "PE %r memory demand %d exceeds largest bank" % (self.id, demand)
            )
        return bank

    def pfus_used(self, mode_index: int) -> int:
        """PFUs consumed in a mode of a programmable instance."""
        if not isinstance(self.pe_type, PpeType):
            raise AllocationError("PE %r is not programmable" % (self.id,))
        from repro.units import GATES_PER_PFU

        return -(-self.mode(mode_index).gates_used // GATES_PER_PFU)

    @property
    def cost(self) -> float:
        """Dollar cost of this instance: PE type plus DRAM bank."""
        total = self.pe_type.cost
        bank = self.memory_bank()
        if bank is not None:
            total += bank.cost
        return total

    # ------------------------------------------------------------------
    def clone(self) -> "PEInstance":
        """Deep-enough copy for trial allocations.

        The immutable ``pe_type`` is shared; modes and assignments are
        copied.
        """
        duplicate = PEInstance(self.id, self.pe_type)
        duplicate.modes = [m.clone() for m in self.modes]
        duplicate.cluster_modes = dict(self.cluster_modes)
        duplicate.replica_modes = {
            name: set(modes) for name, modes in self.replica_modes.items()
        }
        return duplicate

    def __repr__(self) -> str:
        return "PEInstance(%r, %d modes, %d clusters)" % (
            self.id,
            len(self.modes),
            len(self.cluster_modes),
        )
