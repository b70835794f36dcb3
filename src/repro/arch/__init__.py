"""Architecture model: the output of co-synthesis.

A heterogeneous distributed architecture is a set of PE *instances*
(each an instantiation of a library PE type, programmable ones carrying
multiple configuration *modes*), link instances connecting them, and
the allocation of clusters/edges onto those instances.  The topology is
not fixed a priori (Section 2.2); CRUSADE grows it instance by
instance.
"""

from repro.arch.modes import Mode
from repro.arch.pe_instance import PEInstance
from repro.arch.link_instance import LinkInstance
from repro.arch.architecture import Architecture
from repro.arch.cost import cost_breakdown

__all__ = [
    "Mode",
    "PEInstance",
    "LinkInstance",
    "Architecture",
    "cost_breakdown",
]
