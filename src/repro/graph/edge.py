"""Edge model: communication between tasks.

Each edge of a task graph is characterized by the number of information
bytes to transfer; its *communication vector* -- time on every link
type -- is derived from link characteristics (Section 2.2).  The vector
is computed with an assumed average port count before allocation and
recomputed with actual port counts after each allocation, so it lives
on the link type (see :mod:`repro.resources.link`) rather than being
stored here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SpecificationError
from repro.units import require_finite


@dataclass(frozen=True)
class Edge:
    """A directed communication edge between two tasks of one graph.

    Parameters
    ----------
    src, dst:
        Task names within the owning graph.
    bytes_:
        Number of information bytes transferred per activation.
    """

    src: str
    dst: str
    bytes_: int = 0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise SpecificationError(
                "self-loop edge on task %r (task graphs are acyclic)" % (self.src,)
            )
        if not 0 <= self.bytes_ < math.inf:
            require_finite(
                self.bytes_, "edge %s->%s byte count", self.src, self.dst
            )
            raise SpecificationError(
                "edge %s->%s byte count must be non-negative" % (self.src, self.dst)
            )

    @property
    def key(self) -> tuple:
        """(src, dst) pair identifying the edge within its graph."""
        return (self.src, self.dst)
