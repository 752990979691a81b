"""Discrete-event simulation kernel.

This module is the pure-Python stand-in for the SystemC engine used by the
original PIMSIM-NN.  It provides the same discrete-event semantics:

* an event queue ordered by simulated time (integer cycles),
* *processes* written as Python generators that suspend on ``yield`` and are
  resumed by the kernel when their wake-up condition fires,
* ``Event`` objects that processes can wait on and that models can notify,
  either after a delay or in the next *delta* step of the current timestamp.

Time is an integer number of cycles.  Within one timestamp, wake-ups are
processed in FIFO order of scheduling, which gives deterministic simulations
(there is no reliance on SystemC's two-phase evaluate/update split; modules
in :mod:`repro.arch` are written to be insensitive to same-cycle ordering
beyond FIFO fairness).

Scheduler design
----------------
The kernel is the hot loop of every benchmark.  Scheduling uses two
structures, split by delay:

* **delta queue** — ``delay == 0`` callbacks (the dominant case: every
  ``Event.notify()``, process spawn and ``yield 0``) go to a ``deque`` of
  ready-to-call zero-argument callables drained FIFO within the current
  cycle.  Nothing is allocated (an :class:`Event` or :class:`Process` is
  itself the entry, through ``__call__``) and the heap is never touched.
* **timer heap** — delays ``>= 1`` go to one ``heapq`` of
  ``(time, seq, fn)`` tuples.

Every entry in both structures is a zero-argument callable:
``call_at``/``call_after`` bind their ``fn(arg)`` pair into one
``partial`` when scheduling, so the drain loops never inspect an entry.
Events and processes are callable themselves rather than caching a bound
method on ``self``: such a cache is a reference cycle on every object.

A finished simulation is freed by reference counting alone:
:meth:`Simulator.close` closes every still-blocked process's generator,
unhooks it from the events it waits on and empties both queues, so no
suspended frame or scheduled entry keeps the model alive (DESIGN.md "A
finished run is freed by reference counting").

All callbacks scheduled for one timestamp run in global scheduling (FIFO)
order: every timed entry carries a global ``seq``, so the heap's entries
for cycle ``T`` pop in scheduling order, and the delta queue (every entry
of which was scheduled at ``T``, after them) runs next.

Further fast paths: ``Event`` waiter bookkeeping is an insertion-ordered
``dict`` keyed by process, so AnyOf sibling cancellation and the
AllOf-after-fire cleanup are O(1) ``pop`` calls (the old list-based
``remove`` was O(n) and silently swallowed double removals); a process
waiting on a single event or a timer records no tuple; and ``run()`` checks
its ``until`` bound once per distinct timestamp rather than once per event.
Every wake-up — spawn, timer or event fire — steps its process through the
one condition dispatch in :meth:`Process._resume` (inlined copies of it
measured within noise; DESIGN.md "Hot paths").

``Simulator.pending`` is exact whenever ``run()`` is not on the stack:
each entry leaves its queue before it runs.

Example
-------
>>> sim = Simulator()
>>> done = Event(sim, "done")
>>> def producer():
...     yield 5           # wait 5 cycles
...     done.notify()
>>> def consumer(log):
...     yield done        # wait on the event
...     log.append(sim.now)
>>> log = []
>>> sim.spawn(producer())
<Process producer>
>>> sim.spawn(consumer(log))
<Process consumer>
>>> sim.run()
>>> log
[5]
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator
from functools import partial
from typing import Any, Callable

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "DeadlockError",
]

class SimulationError(RuntimeError):
    """Base class for kernel-level errors."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when processes remain blocked forever.

    A deadlock is reported when the event queue drains while live processes
    are still waiting on events that can no longer be notified.  The message
    lists the stuck processes to make protocol bugs (e.g. an unmatched
    synchronized SEND) easy to diagnose.
    """


class Event:
    """A notifiable condition that processes can wait on.

    Mirrors ``sc_event``: any number of processes may be blocked on an event;
    :meth:`notify` wakes all of them.  Notification may be immediate (next
    delta of the current cycle) or delayed by an integer number of cycles.
    """

    __slots__ = ("sim", "name", "_waiters", "_fired_at", "_dappend")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: insertion-ordered waiting processes (dict used as an ordered set
        #: so cancellation is O(1); wake order is insertion order, matching
        #: the old list-based FIFO semantics).
        self._waiters: dict[Process, None] = {}
        #: time of the most recent notification, or ``None``.
        self._fired_at: int | None = None
        #: the simulator's delta append, cached (the deque is never
        #: replaced); the event itself is the scheduled entry.
        self._dappend = sim._delta_append

    def notify(self, delay: int = 0) -> None:
        """Fire after ``delay`` cycles (0 = next delta step).

        Waiters are collected at *fire* time, matching ``sc_event``: a
        process that starts waiting between the notify call and the fire
        instant is woken; one that starts waiting after the fire is not.
        """
        if delay == 0:
            self._dappend(self)
        elif delay > 0:
            if not isinstance(delay, int):
                raise ValueError(
                    f"notify delay must be an integer number of cycles, "
                    f"got {delay!r}")
            self.sim._schedule(delay, self)
        else:
            raise ValueError(f"negative notify delay: {delay}")

    def __call__(self) -> None:
        """Fire (the event is its own queue entry): wake every waiter."""
        self._fired_at = self.sim.now
        waiters = self._waiters
        if not waiters:
            return
        if len(waiters) == 1:
            waiters.popitem()[0]._resume(self)
        else:
            self._waiters = {}
            for proc in waiters:
                proc._resume(self)

    @property
    def fired_at(self) -> int | None:
        """Cycle of the last notification, or ``None`` if never fired."""
        return self._fired_at

    def _remove_waiter(self, proc: "Process") -> None:
        # O(1); removing a process that is not waiting (e.g. the AllOf
        # cleanup of an already-fired member event) is a defined no-op.
        self._waiters.pop(proc, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.name or hex(id(self))}>"


class AnyOf:
    """Wait condition satisfied when *any* of the given events fires."""

    __slots__ = ("events",)

    def __init__(self, *events: Event) -> None:
        if not events:
            raise ValueError("AnyOf requires at least one event")
        self.events = events


class AllOf:
    """Wait condition satisfied once *all* of the given events have fired."""

    __slots__ = ("events",)

    def __init__(self, *events: Event) -> None:
        if not events:
            raise ValueError("AllOf requires at least one event")
        self.events = events


class Process:
    """A simulation process driving a generator coroutine.

    The generator may yield:

    * ``int`` — suspend for that many cycles,
    * :class:`Event` — suspend until the event is notified,
    * :class:`AnyOf` — suspend until the first of several events fires,
    * :class:`AllOf` — suspend until all of several events have fired.

    The value sent back into the generator is the :class:`Event` that woke it
    (or ``None`` for a timed wait), so a process waiting on ``AnyOf`` can
    learn which condition fired.
    """

    __slots__ = ("sim", "gen", "name", "_wait_single", "_wait_multi",
                 "_pending_all", "_done", "_finished_event", "_send")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "") or gen.__class__.__name__
        #: each resume skips one lookup; the process itself is the queue
        #: entry that resumes it (``__call__``).
        self._send = gen.send
        #: fast path: the one event this process waits on (no tuple built).
        self._wait_single: Event | None = None
        #: AnyOf/AllOf: the tuple of events this process is registered with.
        self._wait_multi: tuple[Event, ...] | None = None
        self._pending_all: set[Event] | None = None
        self._done = False
        self._finished_event: Event | None = None

    @property
    def done(self) -> bool:
        """Whether the underlying generator has finished."""
        return self._done

    @property
    def finished(self) -> Event:
        """Event notified when this process terminates (lazily created)."""
        if self._finished_event is None:
            self._finished_event = Event(self.sim, f"{self.name}.finished")
            if self._done:
                self._finished_event.notify()
        return self._finished_event

    def _resume(self, cause: Event | None = None) -> None:
        """The one wake-up path: wait-state cleanup, then one generator
        step, then dispatch on the yielded condition.

        ``cause`` is the firing :class:`Event`, or ``None`` for the spawn
        step and timer wakes (the kernel calls the process itself, which is
        this method) — neither has wait state to clean, so they pay one
        compare.  Only a firing :class:`Event` (whose waiters are by
        construction live, blocked processes), :meth:`Simulator.spawn`
        (a fresh process) and this dispatch's own timers schedule this,
        so no ``_done`` re-check is needed.
        """
        if cause is not None:
            pending = self._pending_all
            if pending is not None:
                pending.discard(cause)
                if pending:
                    return  # still waiting on the rest of the AllOf set
                self._pending_all = None
            if self._wait_single is not None:
                self._wait_single = None
            else:
                multi = self._wait_multi
                if multi is not None:
                    self._wait_multi = None
                    # Cancel any sibling waits (AnyOf semantics); O(1) each.
                    for ev in multi:
                        if ev is not cause:
                            ev._waiters.pop(self, None)
        sim = self.sim
        try:
            condition = self._send(cause)
        except StopIteration:
            self._done = True
            sim._live_processes.discard(self)
            if self._finished_event is not None:
                self._finished_event.notify()
            return
        tc = condition.__class__
        if tc is int:
            if condition > 0:
                sim._seq = seq = sim._seq + 1
                heapq.heappush(sim._timers, (sim.now + condition, seq, self))
            elif condition == 0:
                sim._delta_append(self)
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {condition}"
                )
        elif tc is Event:
            condition._waiters[self] = None
            self._wait_single = condition
        elif tc is AnyOf:
            for ev in condition.events:
                ev._waiters[self] = None
            self._wait_multi = condition.events
        elif tc is AllOf:
            self._pending_all = set(condition.events)
            for ev in condition.events:
                ev._waiters[self] = None
            self._wait_multi = condition.events
        elif isinstance(condition, int):
            # bool / int subclasses take the generic path.
            if condition < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {condition}"
                )
            sim._schedule(condition, self)
        elif isinstance(condition, Event):
            condition._waiters[self] = None
            self._wait_single = condition
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported condition "
                f"{condition!r} (expected int, Event, AnyOf or AllOf)"
            )

    __call__ = _resume

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name}>"


class Simulator:
    """The event queue: schedules callbacks and drives processes.

    ``Simulator`` replaces the SystemC kernel.  Models register processes
    with :meth:`spawn`; :meth:`run` then advances simulated time until the
    queue drains, a time bound is hit, or :meth:`stop` is called.
    """

    def __init__(self) -> None:
        #: current simulated time in cycles.
        self.now: int = 0
        #: same-cycle callbacks: a FIFO of zero-arg callables.  The deque
        #: object is never replaced (the drain pops it empty in place), so
        #: its bound ``append`` can be cached by every scheduling site.
        self._delta: deque = deque()
        self._delta_append = self._delta.append
        #: timed callbacks: a heap of ``(time, seq, fn)``.
        self._timers: list[tuple[int, int, Callable]] = []
        self._seq = 0
        self._live_processes: set[Process] = set()
        self._stopped = False

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, delay: int, fn: Callable) -> None:
        """Schedule a zero-argument callable after ``delay`` cycles."""
        if delay == 0:
            self._delta_append(fn)
        else:
            self._seq = seq = self._seq + 1
            heapq.heappush(self._timers, (self.now + delay, seq, fn))

    def call_at(self, time: int, fn: Callable, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self.call_after(time - self.now, fn, arg)

    def call_after(self, delay: int, fn: Callable, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` after ``delay`` cycles."""
        if not isinstance(delay, int):
            raise SimulationError(
                f"delay must be an integer number of cycles, got {delay!r}")
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._schedule(delay, partial(fn, arg))

    def event(self, name: str = "") -> Event:
        """Create a fresh :class:`Event` bound to this simulator."""
        return Event(self, name)

    # -- processes ----------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process; it takes its first step at
        the current time (before time advances)."""
        proc = Process(self, gen, name)
        self._live_processes.add(proc)
        self._delta_append(proc)
        return proc

    # -- running ------------------------------------------------------------

    def run(self, until: int | None = None, *, detect_deadlock: bool = True) -> None:
        """Advance simulation until the queue drains or ``until`` is reached.

        With ``detect_deadlock`` (default), raises :class:`DeadlockError` if
        the queue drains while spawned processes are still blocked on events.
        An ``until`` before the current cycle raises :class:`SimulationError`:
        the clock never moves backwards.
        """
        has_until = until is not None
        if has_until and until < self.now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self.now}")
        self._stopped = False
        delta = self._delta
        dpop = delta.popleft
        timers = self._timers
        pop_timer = heapq.heappop
        while True:
            now = self.now
            # 1. timers that land on the current cycle, in scheduling
            # order; a popped entry is gone, so `pending` stays exact.
            while timers and timers[0][0] == now:
                pop_timer(timers)[2]()
                if self._stopped:
                    return
            # 2. the delta queue: all same-cycle work, including work
            # appended while draining (entries are consumed as they run, so
            # `pending` and resume-after-stop stay exact with no cleanup).
            while delta:
                dpop()()
                if self._stopped:
                    return
            # 3. advance time to the next timer.
            if not timers:
                break  # drained
            next_time = timers[0][0]
            if has_until and next_time > until:
                self.now = until
                return
            self.now = next_time
        if detect_deadlock and not self._stopped and self._live_processes:
            stuck = sorted(p.name for p in self._live_processes)
            raise DeadlockError(
                f"simulation deadlocked at cycle {self.now}; "
                f"{len(stuck)} process(es) still blocked: {', '.join(stuck[:12])}"
                + (" …" if len(stuck) > 12 else "")
            )

    def stop(self) -> None:
        """Request :meth:`run` to return after the current callback."""
        self._stopped = True

    def close(self) -> None:
        """Release the simulation once nothing will run it again.

        Closes the generator of every still-blocked process (a suspended
        frame holds its model objects, which hold the simulator, which
        holds the process), unhooks it from the events it waits on and
        empties both queues.  The clock and every model counter keep their
        values, so results can still be read; the model is then freed by
        reference counting, with no work left for the cyclic collector.
        Call it outside :meth:`run`, never from a process.
        """
        for proc in self._live_processes:
            proc.gen.close()
            proc._done = True
            for ev in proc._wait_multi or (proc._wait_single,):
                if ev is not None:
                    ev._waiters.pop(proc, None)
            proc._wait_single = proc._wait_multi = proc._pending_all = None
        self._live_processes.clear()
        self._delta.clear()
        self._timers.clear()

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unprocessed entries."""
        return len(self._timers) + len(self._delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now} pending={self.pending}>"
