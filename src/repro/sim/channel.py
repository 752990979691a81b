"""Blocking queue and lock primitives built on the event kernel.

* :class:`Fifo` — bounded queue with blocking ``put``/``get`` coroutines;
  used for the execution units' issue queues and the per-flow SEND queues.
* :class:`Resource` — counted lock with FIFO granting; ``Resource(sim, 1)``
  is the exclusive lock behind NoC link serialization and the global
  memory port, larger counts model shared-ADC arbitration.

The ISA's *synchronized transfer* instructions are not a channel here:
:class:`repro.arch.flows.FlowChannel` pairs SEND with RECV on the flow
tables the compiler emits.

All blocking operations are generator coroutines: call them with
``yield from`` inside a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from .kernel import Event, SimulationError, Simulator

__all__ = ["Fifo", "Resource", "ChannelError"]


class ChannelError(SimulationError):
    """Protocol misuse of a channel (e.g. releasing an idle resource)."""


class Fifo:
    """Bounded FIFO with blocking coroutine ``put``/``get``.

    ``capacity=None`` means unbounded (puts never block).
    """

    def __init__(self, sim: Simulator, capacity: int | None = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"fifo capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        # Only a bounded fifo can block a put (every use of ``_not_full``
        # is behind a capacity check).
        self._not_full = (None if capacity is None
                          else Event(sim, f"{name}.not_full"))
        self._not_empty = Event(sim, f"{name}.not_empty")

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    # Notifications are edge-triggered AND waiter-gated: ``_not_empty``
    # fires only on the empty->nonempty transition and ``_not_full`` only
    # on full->notfull, and only when some coroutine is actually blocked
    # on that boundary.  Waiters re-check the queue state before blocking,
    # so a transition with nobody waiting needs no kernel callback at all
    # — steady-state streaming schedules nothing, and a consumer that
    # arrives after the transition sees the items directly.
    #
    # ``try_put``/``try_get`` are the frame-free twins of the coroutines'
    # nonblocking paths: hot loops call them first and fall into the
    # generator only when the queue would actually block.

    def put(self, item: Any) -> Generator:
        """Coroutine: append ``item``, blocking while the fifo is full."""
        items = self._items
        capacity = self.capacity
        if capacity is not None:
            while len(items) >= capacity:
                yield self._not_full
        items.append(item)
        if len(items) == 1 and self._not_empty._waiters:
            self._not_empty.notify()

    def get(self) -> Generator:
        """Coroutine: pop the oldest item, blocking while empty.

        The popped item is returned as the coroutine's value
        (``x = yield from fifo.get()``).
        """
        items = self._items
        while not items:
            yield self._not_empty
        item = items.popleft()
        capacity = self.capacity
        if capacity is not None and len(items) == capacity - 1 \
                and self._not_full._waiters:
            self._not_full.notify()
        return item

    def try_put(self, item: Any) -> bool:
        """Nonblocking put; returns False when full."""
        items = self._items
        capacity = self.capacity
        if capacity is not None and len(items) >= capacity:
            return False
        items.append(item)
        if len(items) == 1 and self._not_empty._waiters:
            self._not_empty.notify()
        return True

    def try_get(self) -> tuple[bool, Any]:
        """Nonblocking get; returns ``(ok, item)``."""
        items = self._items
        if not items:
            return False, None
        item = items.popleft()
        capacity = self.capacity
        if capacity is not None and len(items) == capacity - 1 \
                and self._not_full._waiters:
            self._not_full.notify()
        return True, item


class Resource:
    """Counted resource: up to ``slots`` concurrent holders, FIFO waiting.

    Models shared hardware with limited parallelism, e.g. an ADC shared by
    the crossbars of a matrix execution unit; with ``slots=1`` it is an
    exclusive lock (a NoC link, the global memory port).
    """

    def __init__(self, sim: Simulator, slots: int, name: str = "") -> None:
        if slots < 1:
            raise ValueError(f"resource needs >= 1 slot, got {slots}")
        self.sim = sim
        self.slots = slots
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.slots - self._in_use

    def acquire(self) -> Generator:
        """Coroutine: block until a slot is free, then take it."""
        while self._in_use >= self.slots:
            wake = Event(self.sim, f"{self.name}.acquire")
            self._waiters.append(wake)
            yield wake
        self._in_use += 1

    def try_acquire(self) -> bool:
        """Nonblocking acquire; returns False when all slots are taken.

        Equivalent to the no-suspension path of :meth:`acquire` (including
        its barging behaviour: a free slot is taken immediately even while
        released-but-not-yet-woken waiters are queued), minus the
        coroutine frame — the fast path for uncontended hot loops.
        """
        if self._in_use >= self.slots:
            return False
        self._in_use += 1
        return True

    def release(self) -> None:
        if self._in_use <= 0:
            raise ChannelError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiters:
            self._waiters.popleft().notify()
