"""Unit tests for fifos, resources (``slots=1``: the exclusive lock) and
the rendezvous exchange of the kernel-equivalence workload."""

import pytest

from _kernel_workload import Rendezvous
from repro.sim import ChannelError, Fifo, Resource, Simulator


class TestFifo:
    def test_put_get_roundtrip(self):
        sim = Simulator()
        fifo = Fifo(sim, 4)
        out = []

        def producer():
            for i in range(3):
                yield from fifo.put(i)

        def consumer():
            for _ in range(3):
                item = yield from fifo.get()
                out.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert out == [0, 1, 2]

    def test_put_blocks_when_full(self):
        sim = Simulator()
        fifo = Fifo(sim, 2)
        timeline = []

        def producer():
            for i in range(4):
                yield from fifo.put(i)
                timeline.append(("put", i, sim.now))

        def consumer():
            yield 10
            for _ in range(4):
                item = yield from fifo.get()
                timeline.append(("got", item, sim.now))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        puts = [(i, t) for op, i, t in timeline if op == "put"]
        # first two puts immediate, the rest gated by the consumer at t=10
        assert puts[0][1] == 0 and puts[1][1] == 0
        assert puts[2][1] >= 10 and puts[3][1] >= 10

    def test_get_blocks_until_data(self):
        sim = Simulator()
        fifo = Fifo(sim)
        got_at = []

        def consumer():
            yield from fifo.get()
            got_at.append(sim.now)

        def producer():
            yield 6
            yield from fifo.put("x")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert got_at == [6]

    def test_unbounded_fifo_never_blocks_put(self):
        sim = Simulator()
        fifo = Fifo(sim, None)

        def producer():
            for i in range(1000):
                yield from fifo.put(i)

        sim.spawn(producer())
        sim.run()
        assert len(fifo) == 1000
        assert not fifo.full

    def test_try_put_try_get(self):
        sim = Simulator()
        fifo = Fifo(sim, 1)
        assert fifo.try_put("a")
        assert not fifo.try_put("b")
        ok, item = fifo.try_get()
        assert ok and item == "a"
        ok, item = fifo.try_get()
        assert not ok and item is None

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Fifo(Simulator(), 0)

    def test_fifo_order_preserved_under_contention(self):
        sim = Simulator()
        fifo = Fifo(sim, 3)
        out = []

        def producer():
            for i in range(20):
                yield from fifo.put(i)
                yield 1

        def consumer():
            for _ in range(20):
                item = yield from fifo.get()
                out.append(item)
                yield 3

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert out == list(range(20))


class TestResource:
    def test_counted_slots(self):
        sim = Simulator()
        res = Resource(sim, 2)
        active = []
        peak = []

        def worker():
            yield from res.acquire()
            active.append(1)
            peak.append(len(active))
            yield 5
            active.pop()
            res.release()

        for _ in range(6):
            sim.spawn(worker())
        sim.run()
        assert max(peak) == 2

    def test_available_accounting(self):
        sim = Simulator()
        res = Resource(sim, 3)
        assert res.available == 3

        def worker():
            yield from res.acquire()
            yield 1
            res.release()

        sim.spawn(worker())
        sim.run()
        assert res.available == 3
        assert res.in_use == 0

    def test_release_idle_raises(self):
        with pytest.raises(ChannelError):
            Resource(Simulator(), 1).release()

    def test_try_acquire_barges_past_queued_waiter(self):
        """A free slot goes to ``try_acquire`` even while a released
        waiter has not yet woken (the NoC hot path relies on it)."""
        sim = Simulator()
        lock = Resource(sim, 1)
        order = []

        def waiter():
            yield from lock.acquire()
            order.append(("waiter", sim.now))
            lock.release()

        assert lock.try_acquire()
        sim.spawn(waiter())
        sim.run(detect_deadlock=False)  # the waiter is now queued
        lock.release()                # wake scheduled, slot free now
        assert lock.try_acquire()     # barges in ahead of the waiter
        order.append(("barger", sim.now))
        sim.call_after(4, lambda _: lock.release())
        sim.run()
        assert order == [("barger", 0), ("waiter", 4)]

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), 0)


class TestMutex:
    """The exclusive lock: ``Resource(sim, 1)``."""

    def test_exclusive_ownership(self):
        sim = Simulator()
        lock = Resource(sim, 1)
        holds = []

        def worker(tag, hold):
            yield from lock.acquire()
            holds.append((tag, "in", sim.now))
            yield hold
            holds.append((tag, "out", sim.now))
            lock.release()

        sim.spawn(worker("a", 5))
        sim.spawn(worker("b", 5))
        sim.run()
        # b enters only after a leaves
        a_out = next(t for tag, io, t in holds if tag == "a" and io == "out")
        b_in = next(t for tag, io, t in holds if tag == "b" and io == "in")
        assert b_in >= a_out

    def test_fifo_granting(self):
        sim = Simulator()
        lock = Resource(sim, 1)
        order = []

        def worker(tag):
            yield from lock.acquire()
            order.append(tag)
            yield 2
            lock.release()

        for tag in range(5):
            sim.spawn(worker(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_release_unlocked_raises(self):
        lock = Resource(Simulator(), 1)
        assert lock.try_acquire()
        lock.release()
        with pytest.raises(ChannelError):
            lock.release()


class TestRendezvous:
    """The tagged exchange the kernel-equivalence workload drives."""

    def test_matched_put_get(self):
        sim = Simulator()
        rv = Rendezvous(sim)
        out = []

        def sender():
            yield 4
            yield from rv.put("tag", "payload")
            out.append(("sent", sim.now))

        def receiver():
            item = yield from rv.get("tag")
            out.append(("recv", item, sim.now))

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run()
        assert ("recv", "payload", 4) in out
        assert ("sent", 4) in out

    def test_put_blocks_until_get(self):
        sim = Simulator()
        rv = Rendezvous(sim)
        sent_at = []

        def sender():
            yield from rv.put(1, "x")
            sent_at.append(sim.now)

        def receiver():
            yield 9
            yield from rv.get(1)

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run()
        assert sent_at == [9]

    def test_different_tags_do_not_match(self):
        sim = Simulator()
        rv = Rendezvous(sim)

        def sender():
            yield from rv.put("a", 1)

        def receiver():
            yield from rv.get("b")

        sim.spawn(sender(), "sender")
        sim.spawn(receiver(), "receiver")
        with pytest.raises(Exception):  # deadlock: tags never match
            sim.run()
        assert rv.pending_sends == 1
        assert rv.pending_receives == 1

    def test_multiple_messages_same_tag_fifo(self):
        sim = Simulator()
        rv = Rendezvous(sim)
        out = []

        def sender():
            for i in range(3):
                yield from rv.put("t", i)

        def receiver():
            for _ in range(3):
                item = yield from rv.get("t")
                out.append(item)

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run()
        assert out == [0, 1, 2]


class TestFifoEdgeNotifications:
    """The fifo only schedules wake-ups on empty<->nonempty / full<->notfull
    edges; steady-state streaming must generate no kernel callbacks."""

    def test_nonempty_put_schedules_nothing(self):
        sim = Simulator()
        fifo = Fifo(sim)
        assert fifo.try_put(1)      # empty -> nonempty edge notifies
        base = sim.pending
        assert fifo.try_put(2)      # no edge: no new wheel entry
        assert fifo.try_put(3)
        assert sim.pending == base

    def test_unbounded_fifo_allocates_no_not_full_event(self):
        """Nothing can block a put on an unbounded fifo (every fifo the
        model builds), so it carries no ``not_full`` event to wake."""
        sim = Simulator()
        assert Fifo(sim)._not_full is None
        assert Fifo(sim, capacity=2)._not_full is not None

    def test_get_above_full_boundary_schedules_nothing(self):
        sim = Simulator()
        fifo = Fifo(sim, capacity=4)
        for i in range(3):          # never reaches full
            fifo.try_put(i)
        sim.run(detect_deadlock=False)  # drain the one not_empty fire
        base = sim.pending
        assert fifo.try_get() == (True, 0)
        assert fifo.try_get() == (True, 1)
        assert sim.pending == base  # full->notfull edge never crossed

    def test_full_edge_wakes_blocked_producers(self):
        sim = Simulator()
        fifo = Fifo(sim, capacity=1, name="edge")
        order = []

        def producer(tag):
            yield from fifo.put(tag)
            order.append(("put", tag))

        def consumer():
            yield 5
            for _ in range(3):
                item = yield from fifo.get()
                order.append(("got", item))
                yield 1

        sim.spawn(producer("a"))
        sim.spawn(producer("b"))
        sim.spawn(producer("c"))
        sim.spawn(consumer())
        sim.run()
        assert order == [("put", "a"), ("got", "a"), ("put", "b"),
                         ("got", "b"), ("put", "c"), ("got", "c")]

    def test_empty_edge_wakes_blocked_consumers(self):
        sim = Simulator()
        fifo = Fifo(sim, capacity=2)
        got = []

        def consumer(tag):
            item = yield from fifo.get()
            got.append((tag, item))

        def producer():
            yield 3
            yield from fifo.put("x")
            yield 3
            yield from fifo.put("y")

        sim.spawn(consumer(0))
        sim.spawn(consumer(1))
        sim.spawn(producer())
        sim.run()
        assert got == [(0, "x"), (1, "y")]

    def test_streaming_throughput_steady_state(self):
        """Unbounded fifo with an always-ahead producer: the consumer must
        never deadlock even though most puts schedule no notification."""
        sim = Simulator()
        fifo = Fifo(sim)
        received = []

        def producer():
            for i in range(50):
                yield from fifo.put(i)

        def consumer():
            for _ in range(50):
                item = yield from fifo.get()
                received.append(item)
                yield 1

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert received == list(range(50))
