"""The architecture under construction.

:class:`Architecture` is CRUSADE's mutable working state: PE and link
instances, the cluster allocation, and the reconfiguration-interface
cost once synthesized.  It supports cheap cloning because the inner
loop of co-synthesis evaluates trial allocations and keeps the best.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AllocationError
from repro.arch.link_instance import LinkInstance
from repro.arch.pe_instance import PEInstance
from repro.resources.library import ResourceLibrary
from repro.resources.link import LinkType
from repro.resources.pe import PEType


class Architecture:
    """A (partial) heterogeneous distributed architecture.

    Attributes
    ----------
    pes:
        PE instances by id.
    links:
        Link instances by id.
    cluster_alloc:
        Cluster name -> (pe instance id, mode index).
    interface_cost:
        Dollar cost of the synthesized reconfiguration controller
        interface (PROMs, programming ports, chaining wiring); set by
        :mod:`repro.reconfig.interface` after allocation.
    """

    #: ``(topo_version, {(pe id, pe id): link or None})``: the answers
    #: :meth:`link_between` gave for one topology.  Never pickled or
    #: cloned: every instance starts from this default, whose version
    #: no topology has.
    _link_memo: Tuple[int, Optional[dict]] = (-1, None)

    def __init__(self, library: ResourceLibrary) -> None:
        """An empty architecture over ``library``: no PE, no link."""
        self.library = library
        self.pes: Dict[str, PEInstance] = {}
        self.links: Dict[str, LinkInstance] = {}
        self.cluster_alloc: Dict[str, Tuple[str, int]] = {}
        self.interface_cost: float = 0.0
        self._counters: Dict[str, int] = {}
        #: Bumped on every change to link connectivity (new/removed
        #: links, port attach/detach, copy-on-write reverts), so the
        #: link memo is dropped exactly when it goes stale.
        self.topo_version: int = 0

    # ------------------------------------------------------------------
    # instance management
    # ------------------------------------------------------------------
    def new_pe(self, pe_type: PEType) -> PEInstance:
        """Instantiate a PE of the given type with a fresh id."""
        index = self._counters.get(pe_type.name, 0)
        self._counters[pe_type.name] = index + 1
        instance = PEInstance("%s#%d" % (pe_type.name, index), pe_type)
        self.pes[instance.id] = instance
        return instance

    def new_link(self, link_type: LinkType) -> LinkInstance:
        """Instantiate a link of the given type with a fresh id."""
        key = "link:" + link_type.name
        index = self._counters.get(key, 0)
        self._counters[key] = index + 1
        instance = LinkInstance("%s#%d" % (link_type.name, index), link_type)
        self.links[instance.id] = instance
        self.topo_version += 1
        return instance

    def remove_pe(self, pe_id: str) -> None:
        """Remove an (empty) PE instance and detach it everywhere."""
        instance = self.pe(pe_id)
        if instance.cluster_modes:
            raise AllocationError(
                "cannot remove PE %r: %d clusters still allocated"
                % (pe_id, len(instance.cluster_modes))
            )
        for link in list(self.links.values()):
            if link.is_attached(pe_id):
                link.detach(pe_id)
                self.topo_version += 1
            if link.ports_used == 0:
                del self.links[link.id]
        del self.pes[pe_id]

    def pe(self, pe_id: str) -> PEInstance:
        """Look up a PE instance."""
        try:
            return self.pes[pe_id]
        except KeyError:
            raise AllocationError("no PE instance %r" % (pe_id,)) from None

    def link(self, link_id: str) -> LinkInstance:
        """Look up a link instance."""
        try:
            return self.links[link_id]
        except KeyError:
            raise AllocationError("no link instance %r" % (link_id,)) from None

    # ------------------------------------------------------------------
    # allocation bookkeeping
    # ------------------------------------------------------------------
    def allocate_cluster(
        self,
        cluster_name: str,
        pe_id: str,
        mode_index: int = 0,
        gates: int = 0,
        pins: int = 0,
        memory=None,
    ) -> None:
        """Record a cluster's placement on a PE instance/mode."""
        from repro.graph.task import MemoryRequirement

        if memory is None:
            memory = MemoryRequirement()
        if cluster_name in self.cluster_alloc:
            raise AllocationError("cluster %r already allocated" % (cluster_name,))
        self.pe(pe_id).assign_cluster(cluster_name, mode_index, gates, pins, memory)
        self.cluster_alloc[cluster_name] = (pe_id, mode_index)

    def deallocate_cluster(
        self,
        cluster_name: str,
        gates: int = 0,
        pins: int = 0,
        memory=None,
    ) -> Tuple[str, int]:
        """Remove a cluster's placement; returns the old (pe, mode).

        The caller supplies the same resource figures used at
        allocation time so the mode counters roll back exactly.
        """
        from repro.graph.task import MemoryRequirement

        if memory is None:
            memory = MemoryRequirement()
        pe_id, mode_index = self.placement_of(cluster_name)
        self.pe(pe_id).remove_cluster(cluster_name, gates, pins, memory)
        del self.cluster_alloc[cluster_name]
        return pe_id, mode_index

    def compact_pe_modes(self, pe_id: str) -> None:
        """Drop empty modes of a programmable PE and renumber.

        Keeps at least one mode.  Updates the allocation table so
        cluster placements keep pointing at the right mode.
        """
        pe = self.pe(pe_id)
        keep = [m for m in pe.modes if not m.empty]
        if not keep:
            keep = [pe.modes[0]]
        remap = {}
        for new_index, mode in enumerate(keep):
            remap[mode.index] = new_index
            mode.index = new_index
        pe.modes = keep
        for cluster_name, old_index in list(pe.cluster_modes.items()):
            new_index = remap[old_index]
            pe.cluster_modes[cluster_name] = new_index
            self.cluster_alloc[cluster_name] = (pe_id, new_index)
        pe.replica_modes = {
            name: {remap[m] for m in modes if m in remap}
            for name, modes in pe.replica_modes.items()
        }
        pe.replica_modes = {
            name: modes for name, modes in pe.replica_modes.items() if modes
        }

    def placement_of(self, cluster_name: str) -> Tuple[str, int]:
        """(pe id, mode index) of an allocated cluster."""
        try:
            return self.cluster_alloc[cluster_name]
        except KeyError:
            raise AllocationError(
                "cluster %r not allocated" % (cluster_name,)
            ) from None

    def is_allocated(self, cluster_name: str) -> bool:
        """True when the cluster has a placement."""
        return cluster_name in self.cluster_alloc

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def find_link_between(self, pe_a: str, pe_b: str) -> Optional[LinkInstance]:
        """An existing link instance connecting both PEs, or None.

        When several exist the one with the fewest ports (fastest
        access) is returned, ties broken by id for determinism.
        """
        candidates = [l for l in self.links.values() if l.connects(pe_a, pe_b)]
        if not candidates:
            return None
        candidates.sort(key=lambda l: (l.ports_used, l.id))
        return candidates[0]

    def link_between(self, pe_a: str, pe_b: str) -> Optional[LinkInstance]:
        """:meth:`find_link_between`, memoized for the current
        ``topo_version`` (independent checkers call the scan itself)."""
        version, memo = self._link_memo
        if version != self.topo_version:
            memo = {}
            self._link_memo = (self.topo_version, memo)
        try:
            return memo[pe_a, pe_b]
        except KeyError:
            link = memo[pe_a, pe_b] = self.find_link_between(pe_a, pe_b)
            return link

    def connect(
        self,
        pe_a: str,
        pe_b: str,
        link_type: LinkType,
        journal: Optional[list] = None,
    ) -> LinkInstance:
        """Ensure a link of ``link_type`` connects the two PEs.

        Preference order: an existing instance already connecting both;
        an existing instance of the type attached to one endpoint with
        a free port; a fresh instance.  Returns the link used.

        ``journal`` (see :mod:`repro.perf.cow`) records the mutations
        performed so a trial connection can be reverted exactly.
        """
        existing = self.find_link_between(pe_a, pe_b)
        if existing is not None:
            return existing
        # Extend an instance of the requested type touching one side.
        extendable = [
            l
            for l in self.links.values()
            if l.link_type.name == link_type.name
            and (l.is_attached(pe_a) != l.is_attached(pe_b))
            and l.ports_free >= 1
        ]
        extendable.sort(key=lambda l: (l.ports_used, l.id))
        if extendable:
            link = extendable[0]
            missing = pe_b if link.is_attached(pe_a) else pe_a
            link.attach(missing)
            self.topo_version += 1
            if journal is not None:
                journal.append(("attach", link.id, missing))
            return link
        had_counter = ("link:" + link_type.name) in self._counters
        link = self.new_link(link_type)
        link.attach(pe_a)
        link.attach(pe_b)
        self.topo_version += 1
        if journal is not None:
            journal.append(("new_link", link.id, link_type.name, had_counter))
        return link

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def n_pes(self) -> int:
        """Number of PE instances."""
        return len(self.pes)

    @property
    def n_links(self) -> int:
        """Number of link instances."""
        return len(self.links)

    @property
    def cost(self) -> float:
        """Total dollar cost: PEs (+DRAM), links, interface."""
        total = sum(p.cost for p in self.pes.values())
        total += sum(l.cost for l in self.links.values())
        total += self.interface_cost
        return total

    def programmable_pes(self) -> List[PEInstance]:
        """Programmable PE instances, sorted by id."""
        return sorted(
            (p for p in self.pes.values() if p.is_programmable),
            key=lambda p: p.id,
        )

    def merge_potential(self) -> int:
        """The paper's merge potential: #PPEs + #links (Section 4.1).

        A decreasing merge potential indicates the reconfiguration
        merge loop is making the architecture smaller.
        """
        return len(self.programmable_pes()) + len(self.links)

    def total_modes(self) -> int:
        """Total configuration modes across programmable instances."""
        return sum(p.n_modes for p in self.programmable_pes())

    # ------------------------------------------------------------------
    def clone(self) -> "Architecture":
        """Independent copy for trial allocations.

        The resource library and the immutable PE/link types are
        shared; instances and allocation tables are copied.
        """
        duplicate = Architecture(self.library)
        duplicate.pes = {pid: p.clone() for pid, p in self.pes.items()}
        duplicate.links = {lid: l.clone() for lid, l in self.links.items()}
        duplicate.cluster_alloc = dict(self.cluster_alloc)
        duplicate.interface_cost = self.interface_cost
        duplicate._counters = dict(self._counters)
        duplicate.topo_version = self.topo_version
        return duplicate

    def __getstate__(self) -> dict:
        """Pickled state: everything but the link memo."""
        state = dict(self.__dict__)
        state.pop("_link_memo", None)
        return state

    def summary(self) -> str:
        """One-line human-readable summary."""
        return "%d PEs, %d links, %d modes, cost $%.0f" % (
            self.n_pes,
            self.n_links,
            self.total_modes(),
            self.cost,
        )

    def __repr__(self) -> str:
        return "Architecture(%s)" % (self.summary(),)
