"""Link instances: instantiated communication resources.

A link instance attaches a set of PE instances (its ports).  Edge
communication times depend on the *actual* port count, which is why the
paper recomputes communication vectors after each allocation.
"""

from __future__ import annotations

from typing import List, Set

from repro.errors import AllocationError
from repro.resources.link import LinkType


class LinkInstance:
    """One instantiated link in the architecture."""

    def __init__(self, instance_id: str, link_type: LinkType) -> None:
        """An instance of ``link_type`` with no PE attached yet; the id
        must be non-empty."""
        if not instance_id:
            raise AllocationError("link instance id must be non-empty")
        self.id = instance_id
        self.link_type = link_type
        self.attached: Set[str] = set()

    @property
    def ports_used(self) -> int:
        """Number of PE instances attached."""
        return len(self.attached)

    @property
    def ports_free(self) -> int:
        """Remaining attachment capacity."""
        return self.link_type.max_ports - len(self.attached)

    def is_attached(self, pe_id: str) -> bool:
        """True when the PE instance is already a port of this link."""
        return pe_id in self.attached

    def attach(self, pe_id: str) -> None:
        """Attach a PE instance; idempotent attach is an error so the
        allocator's port accounting stays honest."""
        if pe_id in self.attached:
            raise AllocationError(
                "PE %r already attached to link %r" % (pe_id, self.id)
            )
        if self.ports_free <= 0:
            raise AllocationError(
                "link %r out of ports (max %d)" % (self.id, self.link_type.max_ports)
            )
        self.attached.add(pe_id)

    def detach(self, pe_id: str) -> None:
        """Detach a PE instance."""
        if pe_id not in self.attached:
            raise AllocationError("PE %r not attached to link %r" % (pe_id, self.id))
        self.attached.discard(pe_id)

    def connects(self, pe_a: str, pe_b: str) -> bool:
        """True when both PE instances are ports of this link."""
        return pe_a in self.attached and pe_b in self.attached

    def comm_time(self, bytes_: int) -> float:
        """Transfer time for ``bytes_`` bytes at the *current* port
        count (the recomputed communication vector entry)."""
        ports = max(2, self.ports_used)
        return self.link_type.comm_time(bytes_, ports)

    @property
    def cost(self) -> float:
        """Dollar cost at the current port count."""
        return self.link_type.instance_cost(max(1, self.ports_used))

    def clone(self) -> "LinkInstance":
        """Copy for trial allocations (link type shared, ports copied)."""
        duplicate = LinkInstance(self.id, self.link_type)
        duplicate.attached = set(self.attached)
        return duplicate

    def attached_sorted(self) -> List[str]:
        """Attached PE ids in sorted order (deterministic reporting)."""
        return sorted(self.attached)

    def __repr__(self) -> str:
        return "LinkInstance(%r, type=%r, ports=%d/%d)" % (
            self.id,
            self.link_type.name,
            self.ports_used,
            self.link_type.max_ports,
        )
