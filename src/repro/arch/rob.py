"""Re-order buffer with a static hazard table.

The ROB bounds the number of instructions a core may have in flight
(Fig. 2b).  Dispatch allocates an entry in program order; execution units
mark entries done out of order; retirement frees entries strictly in
order.  The dispatch stage consults :meth:`has_conflict` so an instruction
never enters an execution unit while an older in-flight instruction
conflicts with it — including the crossbar-group *structure hazard* the
paper uses to explain the ROB-size plateau of Fig. 4.

Hazard queries return the *oldest* conflicting entry, so a blocked unit
can wait on exactly the entry that blocks it (via :meth:`ready_event`)
and re-probe only when that entry completes, rather than being woken by
every completion in the window.  Sealed straight-line programs — every
compiled program — answer them from the precomputed table of
:meth:`repro.isa.Program.static_blockers` (per instruction, the relative
lags of its blockers, oldest first: instruction ``i``'s blockers sit in
ring slots ``i - lag``); branchy or unsealed hand-assembled programs fall
back to a program-order :meth:`Instruction.conflicts_with` scan of the
window.  Both answer identically (pinned by the randomized oracle in
``tests/test_rob_scoreboard.py`` and the ``tests/golden/`` traces).

This module is on the per-instruction hot path of every simulation, so
the table-mode allocate/complete/retire bodies are inlined rather than
factored (mirroring the kernel's own style); ``RobEntry`` is a
``__slots__`` class for the same reason.
"""

from __future__ import annotations

from collections import deque

from ..isa import Instruction
from ..sim import Event, Simulator

__all__ = ["RobEntry", "ReorderBuffer"]


class RobEntry:
    """One in-flight instruction: identity-keyed, slotted (hot path)."""

    __slots__ = ("inst", "done", "dispatched_at", "completed_at",
                 "seq", "done_event")

    def __init__(self, inst: Instruction, dispatched_at: int = 0,
                 seq: int = 0) -> None:
        self.inst = inst
        self.done = False
        self.dispatched_at = dispatched_at
        self.completed_at = -1
        #: allocation sequence number; program order within the core.
        self.seq = seq
        #: lazily-created event notified at completion (``ready_event``).
        self.done_event: Event | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "in-flight"
        return f"RobEntry({self.inst!r}, {state}, seq={self.seq})"


class ReorderBuffer:
    """In-order allocate / out-of-order complete / in-order retire.

    ``static_blockers`` (from :meth:`repro.isa.Program.static_blockers`)
    switches hazard probes to table mode: for straight-line programs
    the conflicting predecessors of every instruction are known up front,
    so a probe is a couple of done-flag checks on a ring of recent
    entries.  Without a table a probe scans the window in program order.
    Both answer identically (pinned by ``tests/test_rob_scoreboard.py``).
    """

    def __init__(self, sim: Simulator, size: int, name: str = "rob", *,
                 static_blockers: tuple | None = None) -> None:
        if size < 1:
            raise ValueError(f"ROB size must be >= 1, got {size}")
        self.sim = sim
        self.size = size
        self.name = name
        self.entries: deque[RobEntry] = deque()
        self.slot_freed = Event(sim, f"{name}.slot_freed")
        self.completed = Event(sim, f"{name}.completed")
        self.drained = Event(sim, f"{name}.drained")
        self.retired_count = 0
        #: peak in-flight occupancy (the only occupancy statistic reports
        #: consume; tracked as a bare int to keep allocate/retire lean).
        self.occupancy_peak = 0
        self._seq = 0
        # -- static hazard table (straight-line programs) --------------------
        self._static = static_blockers
        if static_blockers is not None:
            # While entry i awaits its blockers (indices >= i-size+1),
            # instructions through i+size-1 may allocate, so slots must
            # cover 2*size-1 consecutive indices without collision.
            ring_size = 1 << (2 * size - 1).bit_length()
            self._ring_mask = ring_size - 1
            #: recent entries by instruction index (in-flight ⊆ ring).
            self._ring: list[RobEntry | None] = [None] * ring_size

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.size

    @property
    def empty(self) -> bool:
        return not self.entries

    # -- hazard queries -------------------------------------------------------

    def oldest_conflict(self, entry: RobEntry) -> RobEntry | None:
        """The oldest in-flight entry older than ``entry`` that conflicts
        with it, or ``None``.

        Execution units call this before issuing: an instruction waits for
        program-order-earlier writers/readers of its operands and for the
        crossbar group it needs, but instructions behind it in other units
        keep flowing — the out-of-order overlap the ROB window buys.  The
        returned entry is what the unit should wait on (``ready_event``).

        In table mode the static blocker set is fixed at allocation and
        only done-flags change, so the oldest *undone* static blocker is
        exactly what the window scan would return.  The table holds lags
        in descending order, i.e. oldest blocker first; every ``index -
        lag`` is within the ``2*size - 1`` indices the ring covers.
        """
        table = self._static
        if table is not None:
            ring = self._ring
            mask = self._ring_mask
            index = entry.inst.index
            for lag in table[index]:  # descending: oldest blocker first
                blocker = ring[(index - lag) & mask]
                if not blocker.done:
                    return blocker
            return None
        inst = entry.inst
        for older in self.entries:  # program order: oldest first
            if older is entry:
                break
            if not older.done and inst.conflicts_with(older.inst):
                return older
        return None

    def oldest_conflict_inst(self, inst: Instruction) -> RobEntry | None:
        """Oldest in-flight entry conflicting with a not-yet-allocated
        instruction (branch resolution at dispatch).  Table mode implies a
        branch-free program, so the model only asks this without a table;
        the scan answers in either mode."""
        for e in self.entries:
            if not e.done and inst.conflicts_with(e.inst):
                return e
        return None

    def conflicts_before(self, entry: RobEntry) -> bool:
        """Does ``entry`` conflict with any *older* in-flight entry?"""
        return self.oldest_conflict(entry) is not None

    def has_conflict(self, inst: Instruction) -> bool:
        """Does ``inst`` conflict with any in-flight instruction?  Used by
        the dispatch stage for instructions executed outside the ROB
        (branch resolution)."""
        return self.oldest_conflict_inst(inst) is not None

    # -- lifecycle ------------------------------------------------------------

    def ready_event(self, entry: RobEntry) -> Event:
        """The event notified when ``entry`` completes (lazily created, so
        entries that never block anyone cost no Event object)."""
        event = entry.done_event
        if event is None:
            event = entry.done_event = Event(self.sim,
                                             f"{self.name}.e{entry.seq}.done")
        return event

    def allocate(self, inst: Instruction) -> RobEntry:
        entries = self.entries
        if len(entries) >= self.size:
            raise RuntimeError(f"{self.name}: allocate on full ROB")
        self._seq = seq = self._seq + 1
        entry = RobEntry(inst, self.sim.now, seq)
        entries.append(entry)
        if self._static is not None:
            # Table mode: in-flight lookups go through the index ring.
            self._ring[inst.index & self._ring_mask] = entry
        n = len(entries)
        if n > self.occupancy_peak:
            self.occupancy_peak = n
        return entry

    def mark_done(self, entry: RobEntry) -> None:
        if entry.done:
            raise RuntimeError(f"{self.name}: double completion of {entry.inst!r}")
        entry.done = True
        entry.completed_at = self.sim.now
        if entry.done_event is not None:
            entry.done_event.notify()
        # ``completed`` is notified only when observed: nothing in the
        # model layer polls it any more (units wait per-entry), but it
        # remains the ROB's public completion signal.
        if self.completed._waiters:
            self.completed.notify()
        # Retire (inlined): free in-order-completed head entries.  The
        # deque still holds ``entry``, so it is never empty here.
        entries = self.entries
        if entries[0].done:
            retired = 0
            while entries and entries[0].done:
                entries.popleft()
                retired += 1
            self.retired_count += retired
            if self.slot_freed._waiters:
                self.slot_freed.notify()
            if not entries and self.drained._waiters:
                self.drained.notify()
