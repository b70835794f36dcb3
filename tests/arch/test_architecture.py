"""Architecture model: instances, modes, replicas, connectivity, cost."""

import pytest

from repro import AllocationError
from repro.arch.architecture import Architecture
from repro.arch.cost import cost_breakdown
from repro.graph.task import MemoryRequirement


@pytest.fixture
def arch(small_library):
    return Architecture(small_library)


class TestPEInstances:
    def test_ids_are_sequential(self, arch, small_library):
        a = arch.new_pe(small_library.pe_type("CPU"))
        b = arch.new_pe(small_library.pe_type("CPU"))
        assert a.id == "CPU#0"
        assert b.id == "CPU#1"

    def test_lookup(self, arch, small_library):
        pe = arch.new_pe(small_library.pe_type("FPGA"))
        assert arch.pe(pe.id) is pe
        with pytest.raises(AllocationError):
            arch.pe("nope")

    def test_processor_flags(self, arch, small_library):
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        assert cpu.is_processor and not cpu.is_programmable
        assert fpga.is_programmable and not fpga.is_processor

    def test_remove_empty_pe_and_links(self, arch, small_library):
        a = arch.new_pe(small_library.pe_type("CPU"))
        b = arch.new_pe(small_library.pe_type("CPU"))
        arch.connect(a.id, b.id, small_library.link_type("bus"))
        arch.remove_pe(b.id)
        assert b.id not in arch.pes
        # Link with a single remaining port survives; fully empty links
        # would be dropped.
        assert all(l.ports_used >= 1 for l in arch.links.values())

    def test_remove_pe_with_clusters_rejected(self, arch, small_library):
        pe = arch.new_pe(small_library.pe_type("CPU"))
        arch.allocate_cluster("c0", pe.id, 0, memory=MemoryRequirement(program=10))
        with pytest.raises(AllocationError):
            arch.remove_pe(pe.id)


class TestAllocation:
    def test_allocate_and_lookup(self, arch, small_library):
        pe = arch.new_pe(small_library.pe_type("FPGA"))
        arch.allocate_cluster("c0", pe.id, 0, gates=100, pins=4)
        assert arch.placement_of("c0") == (pe.id, 0)
        assert arch.is_allocated("c0")
        assert pe.mode(0).gates_used == 100

    def test_double_allocation_rejected(self, arch, small_library):
        pe = arch.new_pe(small_library.pe_type("FPGA"))
        arch.allocate_cluster("c0", pe.id, 0)
        with pytest.raises(AllocationError):
            arch.allocate_cluster("c0", pe.id, 0)

    def test_deallocate_rolls_back_resources(self, arch, small_library):
        pe = arch.new_pe(small_library.pe_type("FPGA"))
        arch.allocate_cluster("c0", pe.id, 0, gates=100, pins=4)
        arch.deallocate_cluster("c0", gates=100, pins=4)
        assert not arch.is_allocated("c0")
        assert pe.mode(0).gates_used == 0
        assert pe.mode(0).pins_used == 0

    def test_new_mode_only_for_programmable(self, arch, small_library):
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        with pytest.raises(AllocationError):
            cpu.new_mode()

    def test_modes_accumulate(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        mode = fpga.new_mode()
        assert mode.index == 1
        arch.allocate_cluster("c0", fpga.id, 1, gates=50)
        assert fpga.mode_of_cluster("c0") == 1

    def test_compact_pe_modes(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        fpga.new_mode()
        fpga.new_mode()
        arch.allocate_cluster("c0", fpga.id, 2, gates=50)
        arch.compact_pe_modes(fpga.id)
        assert fpga.n_modes == 1
        assert arch.placement_of("c0") == (fpga.id, 0)


class TestReplicas:
    def test_replica_accounting(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        fpga.new_mode()
        arch.allocate_cluster("c0", fpga.id, 0, gates=100, pins=4)
        fpga.add_replica("c0", 1, gates=100, pins=4)
        assert fpga.modes_of_cluster("c0") == (0, 1)
        assert fpga.mode(1).gates_used == 100
        assert fpga.has_replicas

    def test_replica_into_primary_rejected(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        arch.allocate_cluster("c0", fpga.id, 0, gates=100)
        with pytest.raises(AllocationError):
            fpga.add_replica("c0", 0)

    def test_duplicate_replica_rejected(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        fpga.new_mode()
        arch.allocate_cluster("c0", fpga.id, 0, gates=100)
        fpga.add_replica("c0", 1, gates=100)
        with pytest.raises(AllocationError):
            fpga.add_replica("c0", 1, gates=100)

    def test_remove_cluster_drops_replicas(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        fpga.new_mode()
        arch.allocate_cluster("c0", fpga.id, 0, gates=100, pins=2)
        fpga.add_replica("c0", 1, gates=100, pins=2)
        arch.deallocate_cluster("c0", gates=100, pins=2)
        assert fpga.mode(1).gates_used == 0
        assert not fpga.has_replicas

    def test_compact_remaps_replicas(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        fpga.new_mode()
        fpga.new_mode()  # mode 2
        arch.allocate_cluster("c0", fpga.id, 2, gates=50)
        arch.allocate_cluster("c1", fpga.id, 0, gates=20)
        fpga.add_replica("c1", 2, gates=20)
        arch.compact_pe_modes(fpga.id)  # drops empty mode 1
        assert fpga.n_modes == 2
        assert fpga.modes_of_cluster("c1") == (0, 1)


class TestConnectivity:
    def test_connect_creates_link(self, arch, small_library):
        a = arch.new_pe(small_library.pe_type("CPU"))
        b = arch.new_pe(small_library.pe_type("CPU"))
        link = arch.connect(a.id, b.id, small_library.link_type("bus"))
        assert link.connects(a.id, b.id)
        assert arch.n_links == 1

    def test_connect_reuses_existing(self, arch, small_library):
        a = arch.new_pe(small_library.pe_type("CPU"))
        b = arch.new_pe(small_library.pe_type("CPU"))
        bus = small_library.link_type("bus")
        l1 = arch.connect(a.id, b.id, bus)
        l2 = arch.connect(a.id, b.id, bus)
        assert l1 is l2
        assert arch.n_links == 1

    def test_connect_extends_partial(self, arch, small_library):
        a = arch.new_pe(small_library.pe_type("CPU"))
        b = arch.new_pe(small_library.pe_type("CPU"))
        c = arch.new_pe(small_library.pe_type("CPU"))
        bus = small_library.link_type("bus")
        arch.connect(a.id, b.id, bus)
        link = arch.connect(a.id, c.id, bus)
        assert link.ports_used == 3
        assert arch.n_links == 1

    def test_find_link_between(self, arch, small_library):
        a = arch.new_pe(small_library.pe_type("CPU"))
        b = arch.new_pe(small_library.pe_type("CPU"))
        assert arch.find_link_between(a.id, b.id) is None
        arch.connect(a.id, b.id, small_library.link_type("bus"))
        assert arch.find_link_between(a.id, b.id) is not None


class TestLinkMemo:
    """``link_between`` answers as a fresh ``find_link_between`` scan
    whatever changed the topology since the memo was filled."""

    @staticmethod
    def _agree(arch, ids):
        """Fill the memo with every ordered pair and compare each
        answer with a fresh scan."""
        for a in ids:
            for b in ids:
                if a != b:
                    assert arch.link_between(a, b) is (
                        arch.find_link_between(a, b)
                    ), (a, b)

    def test_memo_answers_as_a_fresh_scan(self, arch, small_library):
        from repro.perf.cow import undo_journal

        bus = small_library.link_type("bus")
        ids = [arch.new_pe(small_library.pe_type("CPU")).id for _ in range(4)]
        a, b, c, d = ids
        self._agree(arch, ids)
        arch.connect(a, b, bus)
        self._agree(arch, ids)
        # A new link, then a port on the older one: (a, c) and (c, d)
        # change answers, and (c, d) picks between two links by ports.
        journal = []
        arch.connect(c, d, bus, journal=journal)
        arch.connect(a, c, bus, journal=journal)
        assert [entry[0] for entry in journal] == ["new_link", "attach"]
        self._agree(arch, ids)
        undo_journal(arch, journal)
        assert arch.find_link_between(a, c) is None
        self._agree(arch, ids)
        arch.remove_pe(b)
        assert arch.find_link_between(a, b) is None
        self._agree(arch, ids)

    def test_clones_and_pickles_do_not_carry_the_memo(
        self, arch, small_library
    ):
        import pickle

        bus = small_library.link_type("bus")
        ids = [arch.new_pe(small_library.pe_type("CPU")).id for _ in range(3)]
        a, b, c = ids
        arch.connect(a, b, bus)
        self._agree(arch, ids)
        clone = arch.clone()
        self._agree(clone, ids)
        clone.connect(b, c, bus)
        self._agree(clone, ids)
        # The original neither sees the clone's link nor lost its own.
        self._agree(arch, ids)
        assert arch.link_between(b, c) is None
        blob = pickle.dumps(arch)
        assert b"_link_memo" not in blob
        restored = pickle.loads(blob)
        assert restored.link_between(a, b).id == arch.link_between(a, b).id
        self._agree(restored, ids)


class TestCost:
    def test_pe_and_link_costs_sum(self, arch, small_library):
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        arch.connect(cpu.id, fpga.id, small_library.link_type("bus"))
        # CPU $50, FPGA $100, bus $5 (no per-port cost in fixture).
        assert arch.cost == pytest.approx(155.0)

    def test_memory_bank_added_for_processor_demand(self, arch, small_library):
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        arch.allocate_cluster(
            "c0", cpu.id, 0, memory=MemoryRequirement(program=1024)
        )
        assert cpu.memory_bank().cost == 20.0
        assert cpu.cost == pytest.approx(70.0)

    def test_interface_cost_included(self, arch, small_library):
        arch.interface_cost = 12.5
        assert arch.cost == pytest.approx(12.5)

    def test_breakdown_totals(self, arch, small_library):
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        arch.allocate_cluster("c0", cpu.id, 0, memory=MemoryRequirement(program=1))
        arch.connect(cpu.id, fpga.id, small_library.link_type("bus"))
        arch.interface_cost = 3.0
        breakdown = cost_breakdown(arch)
        assert breakdown.total == pytest.approx(arch.cost)
        assert breakdown.processors == 50.0
        assert breakdown.ppes == 100.0
        assert breakdown.memory == 20.0
        assert breakdown.interface == 3.0

    def test_merge_potential(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        cpu = arch.new_pe(small_library.pe_type("CPU"))
        arch.connect(cpu.id, fpga.id, small_library.link_type("bus"))
        # 1 PPE + 1 link.
        assert arch.merge_potential() == 2


class TestClone:
    def test_clone_is_independent(self, arch, small_library):
        fpga = arch.new_pe(small_library.pe_type("FPGA"))
        fpga.new_mode()
        arch.allocate_cluster("c0", fpga.id, 1, gates=50)
        fpga.add_replica("c0", 0, gates=50)
        copy = arch.clone()
        copy.deallocate_cluster("c0", gates=50)
        assert arch.is_allocated("c0")
        assert arch.pe(fpga.id).mode(1).gates_used == 50
        assert not copy.is_allocated("c0")

    def test_clone_preserves_counters(self, arch, small_library):
        arch.new_pe(small_library.pe_type("CPU"))
        copy = arch.clone()
        new = copy.new_pe(small_library.pe_type("CPU"))
        assert new.id == "CPU#1"
