"""Seeded random kernel workloads with wake-order trace recording.

Shared by the kernel-equivalence suite: the same deterministic workload is
run on the current kernel and its wake-order trace is compared against a
golden trace recorded on the seed (pre-optimization) kernel.  The workload
mixes every kernel primitive the architecture models use:

* timed waits spanning the delay classes 0, 1-127 and >= 128,
* single-event waits, ``AnyOf`` and ``AllOf`` over a shared event pool,
* ``Fifo`` producer/consumer streams (bounded and unbounded),
* ``Rendezvous`` tagged send/receive pairs (the class below: it left
  ``repro.sim`` when nothing in the models used it any more, and lives on
  here so the seed-recorded traces stay byte-identical),
* exclusive (``Resource(sim, 1)``) and counted ``Resource`` contention,
* dynamic ``spawn`` plus ``Process.finished`` waits.

All randomness comes from per-process ``random.Random`` instances seeded
from the workload seed, so the generated call sequence is a pure function
of the seed — any trace difference is a kernel-semantics difference.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Generator

from repro.sim import AllOf, AnyOf, Event, Fifo, Resource, Simulator

__all__ = ["run_workload", "HORIZON"]

#: cycle bound for every workload run (the sims intentionally leave some
#: processes blocked; running "until" sidesteps deadlock detection).
HORIZON = 20_000


class Rendezvous:
    """Unbuffered synchronized exchange keyed by an arbitrary tag.

    A ``put(tag, item)`` completes only when a ``get(tag)`` is pending for
    the same tag and vice versa — both sides resume at the same cycle.  This
    models the ISA's synchronized SEND/RECV semantics: the sender holds its
    data until the receiver is ready, so no unbounded buffering is assumed
    (the modelling point the paper makes against MNSIM2.0).
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._senders: dict[Any, deque[tuple[Any, Event]]] = {}
        self._receivers: dict[Any, deque[tuple[list, Event]]] = {}

    def put(self, tag: Any, item: Any) -> Generator:
        """Coroutine: offer ``item`` under ``tag``; block until matched."""
        receivers = self._receivers.get(tag)
        if receivers:
            slot, wake = receivers.popleft()
            if not receivers:
                del self._receivers[tag]
            slot.append(item)
            wake.notify()
            return
        wake = Event(self.sim, f"{self.name}.put[{tag}]")
        self._senders.setdefault(tag, deque()).append((item, wake))
        yield wake

    def get(self, tag: Any) -> Generator:
        """Coroutine: receive the item offered under ``tag``; block until
        a matching put arrives.  Returns the item."""
        senders = self._senders.get(tag)
        if senders:
            item, wake = senders.popleft()
            if not senders:
                del self._senders[tag]
            wake.notify()
            return item
        slot: list = []
        wake = Event(self.sim, f"{self.name}.get[{tag}]")
        self._receivers.setdefault(tag, deque()).append((slot, wake))
        yield wake
        return slot[0]

    @property
    def pending_sends(self) -> int:
        return sum(len(q) for q in self._senders.values())

    @property
    def pending_receives(self) -> int:
        return sum(len(q) for q in self._receivers.values())


#: delays chosen to span the delay classes 0, 1-127 and >= 128.
_DELAYS = (0, 0, 0, 1, 1, 2, 3, 7, 17, 40, 63, 64, 65, 130, 400)


def _build(sim: Simulator, seed: int, trace: list) -> None:
    rng = random.Random(seed)
    pool = [Event(sim, f"ev{i}") for i in range(8)]
    fifo_b = Fifo(sim, capacity=rng.choice([1, 2, 4]), name="fifo_b")
    fifo_u = Fifo(sim, capacity=None, name="fifo_u")
    rendezvous = Rendezvous(sim, "rv")
    mutex = Resource(sim, 1, "mtx")
    resource = Resource(sim, rng.randint(1, 3), "res")

    def t(name: str, what: str) -> None:
        trace.append((sim.now, name, what))

    def ticker(name, r):
        for _ in range(r.randint(60, 90)):
            yield r.choice(_DELAYS)
            ev = pool[r.randrange(len(pool))]
            delay = r.choice((0, 0, 0, 1, 2, 5, 70))
            ev.notify(delay)
            t(name, f"notify:{ev.name}+{delay}")

    def waiter(name, r):
        for i in range(r.randint(40, 60)):
            roll = r.random()
            if roll < 0.30:
                ev = pool[r.randrange(len(pool))]
                cause = yield ev
                t(name, f"woke:{cause.name}")
            elif roll < 0.50:
                evs = r.sample(pool, r.randint(2, 4))
                cause = yield AnyOf(*evs)
                t(name, f"any:{cause.name}")
            elif roll < 0.60:
                evs = r.sample(pool, r.randint(2, 3))
                cause = yield AllOf(*evs)
                t(name, f"all:{cause.name}")
            else:
                d = r.choice(_DELAYS)
                yield d
                t(name, f"slept:{d}")

    def producer(name, r, fifo):
        for i in range(r.randint(50, 80)):
            yield from fifo.put((name, i))
            t(name, f"put:{i}")
            yield r.choice((0, 0, 1, 1, 2, 7))

    def consumer(name, r, fifo):
        for _ in range(r.randint(50, 80)):
            item = yield from fifo.get()
            t(name, f"got:{item[0]}:{item[1]}")
            yield r.choice((0, 1, 1, 3))

    def sender(name, r):
        for i in range(r.randint(15, 25)):
            tag = r.randrange(3)
            yield from rendezvous.put(tag, (name, i))
            t(name, f"sent:{tag}")
            yield r.choice(_DELAYS)

    def receiver(name, r):
        for _ in range(r.randint(15, 25)):
            tag = r.randrange(3)
            item = yield from rendezvous.get(tag)
            t(name, f"recv:{tag}:{item[0]}")
            yield r.choice(_DELAYS)

    def locker(name, r):
        for _ in range(r.randint(15, 30)):
            yield from mutex.acquire()
            t(name, "locked")
            yield r.choice((0, 1, 2, 5))
            mutex.release()
            yield r.choice(_DELAYS)

    def res_user(name, r):
        for _ in range(r.randint(15, 30)):
            yield from resource.acquire()
            t(name, "acquired")
            yield r.choice((0, 1, 3, 8))
            resource.release()
            yield r.choice(_DELAYS)

    def child(name, r):
        yield r.choice(_DELAYS)
        t(name, "child-done")

    def parent(name, r):
        for i in range(r.randint(8, 14)):
            proc = sim.spawn(child(f"{name}.c{i}", r), name=f"{name}.c{i}")
            yield proc.finished
            t(name, f"reaped:{i}")
            yield r.choice(_DELAYS)

    def sub(tag):
        return random.Random(f"{seed}:{tag}")

    for i in range(2):
        sim.spawn(ticker(f"tick{i}", sub(f"tick{i}")), name=f"tick{i}")
    for i in range(4):
        sim.spawn(waiter(f"wait{i}", sub(f"wait{i}")), name=f"wait{i}")
    for i, fifo in enumerate((fifo_b, fifo_u)):
        sim.spawn(producer(f"prod{i}", sub(f"prod{i}"), fifo), name=f"prod{i}")
        sim.spawn(consumer(f"cons{i}", sub(f"cons{i}"), fifo), name=f"cons{i}")
    for i in range(2):
        sim.spawn(sender(f"send{i}", sub(f"send{i}")), name=f"send{i}")
        sim.spawn(receiver(f"recv{i}", sub(f"recv{i}")), name=f"recv{i}")
    for i in range(2):
        sim.spawn(locker(f"lock{i}", sub(f"lock{i}")), name=f"lock{i}")
        sim.spawn(res_user(f"res{i}", sub(f"res{i}")), name=f"res{i}")
    sim.spawn(parent("parent", sub("parent")), name="parent")


def run_workload(seed: int) -> dict:
    """Run one seeded workload; returns a JSON-friendly result record."""
    sim = Simulator()
    trace: list = []
    _build(sim, seed, trace)
    sim.run(until=HORIZON, detect_deadlock=False)
    return {
        "seed": seed,
        "now": sim.now,
        "pending": sim.pending,
        "trace": [[t, name, what] for t, name, what in trace],
    }
