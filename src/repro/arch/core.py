"""Core model: fetch / decode / dispatch front-end, ROB, execution units.

The front-end issues the core's instruction stream in program order:

1. fetch+decode (``fetch_width`` instructions per cycle),
2. stall while the ROB is full (the ROB *is* the lookahead window — the
   knob Fig. 4 sweeps),
3. allocate a ROB entry and enqueue to the target execution unit.

Hazards are enforced at unit issue, not dispatch: each unit holds an
instruction until no *older* in-flight entry conflicts with it (RAW/WAR/
WAW on registers or local memory, structural hazard on crossbar groups —
see :meth:`~repro.arch.rob.ReorderBuffer.conflicts_before`), so
independent younger instructions in other units keep flowing.  This is
the paper's "dispatch unit which can identify the conflicts between
instructions" working with the ROB to expose hardware parallelism.

Branches resolve at dispatch (sources are hazard-checked first, so the
register file is architecturally current); ``HALT`` stops issue and the
core reports halted once its ROB drains.  Compiled programs are
straight-line, but the branch path makes the core a complete interpreter
for the ISA's scalar control flow (exercised by the ISA-level tests).

:class:`CoreBase` is the chassis both fidelity tiers build on: this
module's :class:`CoreModel` and the fast tier's walker core
(:mod:`repro.arch.fast`) share its identity and halt state, counters,
scalar ALU, per-flow SEND drainer and per-core ``stats()`` contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..isa import N_REGISTERS, Program, ScalarInst
from ..sim import Event, Fifo
from .rob import ReorderBuffer, RobEntry
from .units import MatrixUnit, ScalarUnit, TransferUnit, VectorUnit

if TYPE_CHECKING:  # pragma: no cover
    from .chip import ChipModel

__all__ = ["CoreBase", "CoreModel"]


class CoreBase:
    """State and behaviour every core model shares, whatever its fidelity.

    A subclass supplies ``units`` (name -> an object with ``name`` /
    ``busy_cycles`` / ``ops`` / ``layer_cycles``), ``rob`` (``entries`` and
    ``occupancy_peak``, read by :meth:`ChipModel._diagnose` and
    :meth:`stats`), ``start()`` and ``_send_done(token)``, the completion
    of one drained SEND.
    """

    def __init__(self, chip: "ChipModel", program: Program) -> None:
        self.chip = chip
        self.sim = chip.sim
        self.config = chip.config
        self.core_id = program.core
        self.program = program
        self.groups = program.groups
        self.regs = [0] * N_REGISTERS
        self.halted = Event(chip.sim, f"core{self.core_id}.halted")
        self.halt_time: int | None = None
        self.issued = 0
        self.rob_stall_cycles = 0
        self.hazard_stall_cycles = 0
        self.queue_stall_cycles = 0
        self._send_queues: dict[int, Fifo] = {}

    # -- scalar ALU ------------------------------------------------------------

    def execute_scalar(self, inst: ScalarInst) -> None:
        """Architectural effect of a scalar ALU op, applied in the order
        the in-order scalar unit completes them (program order)."""
        regs = self.regs
        op = inst.op
        if op == "LI":
            regs[inst.rd] = inst.imm
        elif op == "SADD":
            regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2]
        elif op == "SSUB":
            regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2]
        elif op == "SMUL":
            regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2]
        elif op == "SAND":
            regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2]
        elif op == "SOR":
            regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2]
        # NOP / HALT: no architectural effect.

    # -- per-flow SEND drain -------------------------------------------------

    def send_queue(self, flow_id: int) -> Fifo:
        """The flow's SEND queue; its drainer is spawned on first use.

        Items are ``(token, issued_at, inst)``: ``issued_at`` is the cycle
        the SEND left local memory, ``token`` what :meth:`_send_done`
        completes once the payload is through.
        """
        queue = self._send_queues.get(flow_id)
        if queue is None:
            queue = self._send_queues[flow_id] = Fifo(
                self.sim, None, f"core{self.core_id}.sendq{flow_id}")
            self.sim.spawn(self._flow_drainer(flow_id, queue),
                           f"core{self.core_id}.drain{flow_id}")
        return queue

    def _flow_drainer(self, flow_id: int, queue: Fifo) -> Generator:
        """The flow's virtual output channel: push each queued SEND
        through the credit window and the mesh, charge the transfer unit
        its busy and per-layer time, then complete the SEND."""
        sim = self.sim
        channel = self.chip.flow(flow_id)
        transfer = self.units["transfer"]
        layers = transfer.layer_cycles
        done = self._send_done
        while True:
            ok, item = queue.try_get()
            if not ok:
                item = yield from queue.get()
            token, issued_at, inst = item
            yield from channel.send(inst.bytes)
            elapsed = sim.now - issued_at
            transfer.busy_cycles += elapsed
            layer = inst.layer
            layers[layer] = layers.get(layer, 0) + elapsed
            done(token)

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "issued": self.issued,
            "halt_time": self.halt_time,
            "rob_stall_cycles": self.rob_stall_cycles,
            "hazard_stall_cycles": self.hazard_stall_cycles,
            "queue_stall_cycles": self.queue_stall_cycles,
            "rob_peak": self.rob.occupancy_peak,
            "unit_busy": {name: unit.busy_cycles
                          for name, unit in self.units.items()},
            "unit_ops": {name: unit.ops for name, unit in self.units.items()},
        }


class CoreModel(CoreBase):
    """One PIM core executing its compiled program, cycle by cycle."""

    def __init__(self, chip: "ChipModel", program: Program) -> None:
        super().__init__(chip, program)
        rob_size = chip.config.core.rob_size
        # Straight-line programs carry a static hazard table (cached on
        # the sealed program, amortized across sweeps/repeat runs);
        # branchy programs fall back to the ROB's window scan.
        static = program.static_blockers(rob_size) if program.sealed else None
        self.rob = ReorderBuffer(chip.sim, rob_size,
                                 f"core{self.core_id}.rob",
                                 static_blockers=static)
        self.units = {
            "matrix": MatrixUnit(self),
            "vector": VectorUnit(self),
            "transfer": TransferUnit(self),
            "scalar": ScalarUnit(self),
        }

    def start(self) -> None:
        for unit in self.units.values():
            unit.start()
        self.sim.spawn(self._issue(), f"core{self.core_id}.issue")

    # -- front-end ---------------------------------------------------------------

    def _issue(self) -> Generator:
        cfg = self.config.core
        fill = cfg.decode_cycles + cfg.dispatch_cycles
        if fill:
            yield fill
        insts = self.program.instructions
        n_insts = len(insts)
        rob = self.rob
        rob_entries = rob.entries
        rob_size = rob.size
        sim = self.sim
        # Unit queues are unbounded (see _UnitBase), so a put is exactly
        # a deque append plus the Fifo's edge-triggered, waiter-gated
        # empty->nonempty wake-up — inlined here because this loop runs
        # once per instruction.
        queues = {unit: (u.queue._items, u.queue._not_empty)
                  for unit, u in self.units.items()}
        fetch_width = cfg.fetch_width
        single_issue = fetch_width == 1
        pc = 0
        while 0 <= pc < n_insts:
            inst = insts[pc]

            if isinstance(inst, ScalarInst) and inst.is_control:
                if inst.op == "HALT":
                    break
                # Branch: wait for in-flight writers of its sources (the
                # ROB names the oldest, so dispatch blocks on that
                # entry's completion event), then resolve against the
                # architectural register file.
                t0 = sim.now
                blocker = rob.oldest_conflict_inst(inst)
                while blocker is not None:
                    yield rob.ready_event(blocker)
                    blocker = rob.oldest_conflict_inst(inst)
                self.hazard_stall_cycles += sim.now - t0
                pc = self._branch_target(inst, pc)
                yield 1  # redirect bubble
                continue

            if len(rob_entries) >= rob_size:
                t0 = sim.now
                while len(rob_entries) >= rob_size:
                    yield rob.slot_freed
                self.rob_stall_cycles += sim.now - t0

            entry = rob.allocate(inst)
            items, not_empty = queues[inst.unit]
            items.append(entry)
            if len(items) == 1 and not_empty._waiters:
                not_empty.notify()

            self.issued += 1
            pc += 1
            if single_issue or self.issued % fetch_width == 0:
                yield 1

        while rob.entries:
            yield rob.drained
        self.halt_time = self.sim.now
        self.halted.notify()

    def _branch_target(self, inst: ScalarInst, pc: int) -> int:
        if inst.op == "SJMP":
            return inst.target
        taken = (self.regs[inst.rs1] == self.regs[inst.rs2])
        if inst.op == "SBNE":
            taken = not taken
        return inst.target if taken else pc + 1

    def _send_done(self, entry: RobEntry) -> None:
        chip = self.chip
        if chip.trace is not None:
            chip.trace_event(self.core_id, "transfer", entry.inst)
        self.rob.mark_done(entry)
