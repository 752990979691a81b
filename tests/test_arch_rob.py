"""Tests for the re-order buffer."""

import pytest

from repro.arch import ReorderBuffer
from repro.isa import MvmInst, ScalarInst, VectorInst
from repro.sim import Simulator


def mvm(group=0, dst=0):
    return MvmInst(group=group, src=1000, src_bytes=4, dst=dst, dst_bytes=4)


class TestCapacity:
    def test_fills_to_size(self):
        rob = ReorderBuffer(Simulator(), 3)
        for i in range(3):
            rob.allocate(mvm(group=i, dst=i * 10), i)
        assert rob.full

    def test_allocate_on_full_raises(self):
        rob = ReorderBuffer(Simulator(), 1)
        rob.allocate(mvm(), 0)
        with pytest.raises(RuntimeError):
            rob.allocate(mvm(group=1, dst=50), 1)

    def test_size_one_allowed(self):
        ReorderBuffer(Simulator(), 1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            ReorderBuffer(Simulator(), 0)


class TestRetirement:
    def test_in_order_retirement(self):
        sim = Simulator()
        rob = ReorderBuffer(sim, 4)
        a = rob.allocate(mvm(group=0, dst=0), 0)
        b = rob.allocate(mvm(group=1, dst=10), 1)
        # completing the younger entry first must NOT free a slot
        rob.mark_done(b)
        assert len(rob.entries) == 2
        assert rob.retired_count == 0
        rob.mark_done(a)
        assert rob.empty
        assert rob.retired_count == 2

    def test_slot_freed_event_fires(self):
        sim = Simulator()
        rob = ReorderBuffer(sim, 1)
        entry = rob.allocate(mvm(), 0)
        fired = []

        def waiter():
            yield rob.slot_freed
            fired.append(sim.now)

        sim.spawn(waiter())
        sim.call_after(5, lambda _: rob.mark_done(entry))
        sim.run()
        assert fired == [5]

    def test_drained_event(self):
        sim = Simulator()
        rob = ReorderBuffer(sim, 4)
        a = rob.allocate(mvm(group=0, dst=0), 0)
        b = rob.allocate(mvm(group=1, dst=10), 1)
        fired = []

        def waiter():
            yield rob.drained
            fired.append(sim.now)

        sim.spawn(waiter())
        sim.call_after(3, lambda _: rob.mark_done(a))
        sim.call_after(9, lambda _: rob.mark_done(b))
        sim.run()
        assert fired == [9]

    def test_double_completion_rejected(self):
        rob = ReorderBuffer(Simulator(), 2)
        entry = rob.allocate(mvm(), 0)
        rob.mark_done(entry)
        with pytest.raises(RuntimeError, match="double completion"):
            rob.mark_done(entry)

    def test_occupancy_peak(self):
        sim = Simulator()
        rob = ReorderBuffer(sim, 8)
        entries = [rob.allocate(mvm(group=i, dst=i * 10), i) for i in range(5)]
        for entry in entries:
            rob.mark_done(entry)
        assert rob.occupancy_peak == 5


class TestHazards:
    def test_conflicts_before_sees_older_only(self):
        rob = ReorderBuffer(Simulator(), 4)
        a = rob.allocate(mvm(group=7, dst=0), 0)
        b = rob.allocate(mvm(group=7, dst=10), 1)  # same group as a
        assert rob.oldest_conflict(b) is a   # b waits on a
        assert rob.oldest_conflict(a) is None  # a waits on nothing

    def test_done_entries_do_not_conflict(self):
        rob = ReorderBuffer(Simulator(), 4)
        a = rob.allocate(mvm(group=7, dst=0), 0)
        rob.allocate(mvm(group=9, dst=10), 1)
        b = rob.allocate(mvm(group=7, dst=20), 2)
        rob.mark_done(a)
        assert rob.oldest_conflict(b) is None

    def test_raw_dependency_chain(self):
        rob = ReorderBuffer(Simulator(), 4)
        producer = rob.allocate(MvmInst(group=0, src=0, src_bytes=4,
                                        dst=100, dst_bytes=40), 0)
        consumer = rob.allocate(VectorInst(op="VRELU", src1=100,
                                           src_bytes=40, dst=200,
                                           dst_bytes=40, length=10), 1)
        assert rob.oldest_conflict(consumer) is producer
        rob.mark_done(producer)
        assert rob.oldest_conflict(consumer) is None

    def test_has_conflict_for_branches(self):
        rob = ReorderBuffer(Simulator(), 4)
        rob.allocate(ScalarInst(op="LI", rd=3, imm=5), 0)
        branch = ScalarInst(op="SBEQ", rs1=3, rs2=0, target=0)
        assert rob.oldest_conflict_inst(branch) is not None
