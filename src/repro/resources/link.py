"""Communication-link types.

Each link type is characterized per Section 2.2: the maximum number of
ports it supports, an access-time vector (access time as a function of
the number of ports sharing the link), the number of information bytes
per packet, and the packet transmission time.  The *communication
vector* of a task-graph edge -- its transfer time on every link type --
is computed from these characteristics, first with an assumed average
port count and again after each allocation with the actual port count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import ResourceLibraryError


@dataclass(frozen=True)
class LinkType:
    """A link type from the link library.

    Parameters
    ----------
    name:
        Identifier, unique within the library.
    cost:
        Dollar cost of instantiating the link (transceivers, wiring,
        arbitration logic), plus ``cost_per_port`` per attached port.
    max_ports:
        Maximum number of PEs attachable (2 for point-to-point).
    access_times:
        Access/arbitration time in seconds indexed by port count: entry
        ``i`` applies when ``i + 1`` ports share the link.  Length must
        equal ``max_ports``; monotone non-decreasing (more contenders,
        longer arbitration).
    bytes_per_packet:
        Information bytes carried per packet.
    packet_tx_time:
        Time to transmit one packet, in seconds.
    cost_per_port:
        Incremental dollar cost per attached port.
    assumed_ports:
        Average port count used to compute communication vectors before
        allocation fixes the actual topology (Section 2.2).
    """

    name: str
    cost: float
    max_ports: int
    access_times: Tuple[float, ...]
    bytes_per_packet: int
    packet_tx_time: float
    cost_per_port: float = 0.0
    assumed_ports: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise ResourceLibraryError("link type name must be non-empty")
        if self.cost < 0 or self.cost_per_port < 0:
            raise ResourceLibraryError(
                "link %r costs must be non-negative" % (self.name,)
            )
        if self.max_ports < 2:
            raise ResourceLibraryError(
                "link %r must support at least 2 ports" % (self.name,)
            )
        if len(self.access_times) != self.max_ports:
            raise ResourceLibraryError(
                "link %r access-time vector must have max_ports=%d entries, got %d"
                % (self.name, self.max_ports, len(self.access_times))
            )
        previous = -1.0
        for access in self.access_times:
            if access < 0:
                raise ResourceLibraryError(
                    "link %r access times must be non-negative" % (self.name,)
                )
            if access < previous:
                raise ResourceLibraryError(
                    "link %r access-time vector must be non-decreasing"
                    % (self.name,)
                )
            previous = access
        if self.bytes_per_packet <= 0:
            raise ResourceLibraryError(
                "link %r bytes per packet must be positive" % (self.name,)
            )
        if self.packet_tx_time <= 0:
            raise ResourceLibraryError(
                "link %r packet time must be positive" % (self.name,)
            )
        if not 2 <= self.assumed_ports <= self.max_ports:
            raise ResourceLibraryError(
                "link %r assumed_ports must be in [2, max_ports]" % (self.name,)
            )

    # ------------------------------------------------------------------
    def access_time(self, ports: int) -> float:
        """Access time when ``ports`` PEs share the link."""
        if ports < 1:
            raise ResourceLibraryError(
                "port count must be at least 1, got %r" % (ports,)
            )
        index = min(ports, self.max_ports) - 1
        return self.access_times[index]

    def packets_for(self, bytes_: int) -> int:
        """Packets needed to move ``bytes_`` information bytes."""
        if bytes_ < 0:
            raise ResourceLibraryError("byte count must be non-negative")
        if bytes_ == 0:
            return 0
        return math.ceil(bytes_ / self.bytes_per_packet)

    def comm_time(self, bytes_: int, ports: int = 0) -> float:
        """Transfer time for ``bytes_`` bytes with ``ports`` sharers.

        ``ports=0`` uses :attr:`assumed_ports` -- the pre-allocation
        estimate the paper prescribes.  Zero-byte transfers take zero
        time (pure precedence edges).
        """
        if bytes_ == 0:
            return 0.0
        if ports <= 0:
            ports = self.assumed_ports
        return self.access_time(ports) + self.packets_for(bytes_) * self.packet_tx_time

    def instance_cost(self, ports: int) -> float:
        """Dollar cost of one instance of this link with ``ports``
        attachments."""
        if ports < 1:
            raise ResourceLibraryError("instance needs at least one port")
        return self.cost + self.cost_per_port * ports

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Steady-state payload bandwidth, for reporting."""
        return self.bytes_per_packet / self.packet_tx_time


#: Link-type selection strategies by name, each the sort key the chosen
#: type minimizes: ``"cheapest"`` the instance-plus-two-ports dollar
#: cost, ``"fastest"`` the transfer time of a representative 256-byte
#: message, ties broken by name
#: (:func:`repro.alloc.evaluate.choose_link_type` dispatches on it).
LINK_STRATEGY_KEYS: Dict[str, Callable[[LinkType], tuple]] = {
    "cheapest": lambda link: (link.instance_cost(2), link.name),
    "fastest": lambda link: (link.comm_time(256), link.name),
}

#: The strategy names, in ``CrusadeConfig.link_strategies``' default
#: order; the only names that field may list.
LINK_STRATEGIES: Tuple[str, ...] = tuple(LINK_STRATEGY_KEYS)
