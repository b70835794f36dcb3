"""Cost accounting and reporting for architectures.

The system cost is the summation of the costs of the constituent PEs
and links (Section 7), plus DRAM banks attached to processors and the
synthesized reconfiguration interface.  :func:`cost_breakdown` gives a
per-category view used by the reports and the benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.arch.architecture import Architecture


@dataclass(frozen=True)
class CostBreakdown:
    """Dollar cost split by category."""

    processors: float
    asics: float
    ppes: float
    memory: float
    links: float
    interface: float

    @property
    def total(self) -> float:
        """Grand total across all categories."""
        return (
            self.processors
            + self.asics
            + self.ppes
            + self.memory
            + self.links
            + self.interface
        )

    def as_dict(self) -> Dict[str, float]:
        """Mapping view for tabular rendering."""
        return {
            "processors": self.processors,
            "asics": self.asics,
            "ppes": self.ppes,
            "memory": self.memory,
            "links": self.links,
            "interface": self.interface,
            "total": self.total,
        }


def cost_breakdown(arch: Architecture) -> CostBreakdown:
    """Split an architecture's cost into reporting categories."""
    processors = 0.0
    asics = 0.0
    ppes = 0.0
    memory = 0.0
    for pe in arch.pes.values():
        if pe.is_programmable:
            ppes += pe.pe_type.cost
        elif pe.is_processor:
            processors += pe.pe_type.cost
            bank = pe.memory_bank()
            if bank is not None:
                memory += bank.cost
        else:
            asics += pe.pe_type.cost
    links = sum(l.cost for l in arch.links.values())
    return CostBreakdown(
        processors=processors,
        asics=asics,
        ppes=ppes,
        memory=memory,
        links=links,
        interface=arch.interface_cost,
    )
