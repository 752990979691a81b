"""The four execution units of a core (Fig. 2b/2c), and the cost table
both fidelity tiers time them with.

* :class:`MatrixUnit` — drives crossbar groups; MVMs to *different* groups
  proceed concurrently (each group has its own converters), optionally
  throttled by core-level shared-ADC domains; MVMs to the same group never
  coexist (the dispatch stage's structural-hazard check guarantees it).
* :class:`VectorUnit` — one SIMD operation at a time; latency is the max
  of ALU time (``length / lanes``) and local-memory streaming time.
* :class:`TransferUnit` — executes SEND/RECV against the windowed flow
  channels and LOAD/STORE against global memory, strictly in order (a DMA
  engine); its busy time *includes* synchronization stalls, which is what
  the per-layer communication-latency ratio measures.  SENDs finish in
  the core's per-flow drainers (:class:`~repro.arch.core.CoreBase`), the
  one SEND path both fidelity tiers share.
* :class:`ScalarUnit` — timing of register ALU ops; their architectural
  effect is the core's shared ``execute_scalar``.

:func:`instruction_costs` is the one place an instruction's latency and
MVM / vector / scalar / local-memory energy are computed.  Each core
builds the table once per run (``CoreBase.costs``); these units and the
fast walker (:mod:`repro.arch.fast`) read ``costs[pc]`` — the entry at
the instruction's stream position, which a ROB entry carries
(``RobEntry.pc``) and the walker enumerates — and add its energy terms
to the meter.  Global-memory, NoC and leakage
energy keep their own sites (:mod:`repro.arch.noc`,
:class:`~repro.arch.chip.ChipModel`).

Each unit pulls ROB entries from its issue queue, executes, charges energy
and per-layer busy time, and marks the entry done.  A unit keeps no
reference to its core or chip: it copies the few fields its callbacks need
at construction, and its process reads the rest from the core passed to
:meth:`_UnitBase.start`, which only the (closed-after-the-run) generator
frame holds.

Issue-side hazard enforcement: a unit asks the ROB for the *oldest*
in-flight conflicting entry and waits on exactly that entry's completion
event (``ReorderBuffer.ready_event``), re-probing after each wake,
instead of being woken by every completion in the window.

The hot loops are also frame-free on their fast paths: queue pops use
the nonblocking ``Fifo.try_get`` (falling into the blocking coroutine
only when the queue is actually empty), and an MVM on a core without
shared-ADC arbitration executes as a pair of scheduled callbacks rather
than a spawned child process — the callback pair replays the spawned
child's scheduling positions exactly, so simulations are bit-identical
either way (pinned by ``tests/golden/``).
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Generator

from ..isa import (VECTOR_SPECIAL_OPS, MvmInst, Program, TransferInst,
                   VectorInst)
from ..sim import Fifo, Resource
from .rob import RobEntry

if TYPE_CHECKING:  # pragma: no cover
    from ..config import ArchConfig
    from .core import CoreModel

__all__ = ["MatrixUnit", "VectorUnit", "TransferUnit", "ScalarUnit",
           "instruction_costs"]


def instruction_costs(program: Program, config: "ArchConfig") -> list:
    """Latency and energy of each instruction of a sealed program, in one
    pass; entry ``i`` is the instruction at stream position ``i``:

    * MVM: ``(latency, xbar, dac, adc, local_mem pJ)``;
    * vector: ``(latency, vector, local_mem pJ)`` — plain ops retire
      ``vector_lanes`` elements per cycle, ``VECTOR_SPECIAL_OPS`` take
      ``vector_special_cycles_per_element`` per element and ``VMATMUL``'s
      ``length`` counts multiply-accumulates;
    * transfer: ``(cycles, local_mem pJ)`` of the local-memory leg — the
      drain before a SEND / STORE, the fill after a RECV / LOAD;
    * scalar ALU op: ``(latency, scalar pJ)``; control: ``None`` (it
      resolves at dispatch and reaches no unit).

    Each term is :class:`~repro.arch.energy.EnergyMeter`'s expression in
    its multiplication order, so sums stay bit-comparable to it.  Equal
    cost-relevant fields share one tuple (as in
    :meth:`~repro.isa.Program.static_blockers`); the table is built per
    run and not kept on the program.
    """
    core = config.core
    e = config.energy
    read_bw = core.local_memory_read_bytes_per_cycle
    write_bw = core.local_memory_write_bytes_per_cycle
    lanes = core.vector_lanes
    mvm_cycles = config.crossbar.mvm_cycles()
    act_bytes = config.compiler.activation_bytes
    phases = config.crossbar.dac_phases
    # Programs without MVMs may carry no group table at all.
    groups = program.groups.groups if program.groups is not None else {}
    scalar = (max(1, core.scalar_cycles), e.scalar_pj_per_op)
    shared: dict[tuple, tuple] = {}
    out: list[tuple | None] = []
    for inst in program.instructions:
        cls = type(inst)
        if cls is MvmInst:
            key = (inst.group, inst.count, inst.dst_bytes)
        elif cls is VectorInst:
            key = (inst.op, inst.length, inst.src_bytes, inst.src2_bytes,
                   inst.dst_bytes)
        elif cls is TransferInst:
            key = (inst.op, inst.bytes)
        else:
            out.append(None if inst.is_control else scalar)
            continue
        cost = shared.get(key)
        if cost is None:
            if cls is MvmInst:
                count = inst.count
                group = groups[inst.group]
                rows, cols = group.rows, group.cols
                in_bytes = count * rows * act_bytes
                out_bytes = inst.dst_bytes
                stream = -(-in_bytes // read_bw) + -(-out_bytes // write_bw)
                cost = (max(count * mvm_cycles, stream),
                        e.xbar_read_pj_per_cell * rows * cols * count,
                        e.dac_pj_per_conversion * rows * phases * count,
                        e.adc_pj_per_sample * cols * phases * count,
                        e.local_mem_pj_per_byte * (in_bytes + out_bytes))
            elif cls is VectorInst:
                length = inst.length
                read_bytes = inst.src_bytes
                if inst.n_sources == 2:
                    read_bytes += inst.src2_bytes or inst.src_bytes
                if inst.op == "VMATMUL":
                    e_elem = e.vector_mac_pj
                    alu = -(-length // lanes)
                elif inst.op in VECTOR_SPECIAL_OPS:
                    e_elem = e.vector_special_pj_per_element
                    alu = -(-length * core.vector_special_cycles_per_element
                            // lanes)
                else:
                    e_elem = e.vector_pj_per_element
                    alu = -(-length // lanes)
                stream = max(-(-read_bytes // read_bw),
                             -(-inst.dst_bytes // write_bw))
                cost = (core.vector_issue_cycles + max(alu, stream),
                        e_elem * length,
                        e.local_mem_pj_per_byte
                        * (read_bytes + inst.dst_bytes))
            else:
                bw = read_bw if inst.op in ("SEND", "STORE") else write_bw
                cost = (math.ceil(inst.bytes / bw),
                        e.local_mem_pj_per_byte * inst.bytes)
            shared[key] = cost
        out.append(cost)
    return out


class _UnitBase:
    """Common queue/bookkeeping for execution units."""

    name = "?"

    def __init__(self, core: "CoreModel") -> None:
        self.sim = core.sim
        self.core_id = core.core_id
        # Queues never throttle below the ROB window (the seed sized them
        # at least as deep as the ROB): the ROB is the architectural
        # lookahead limit (Fig. 4), the queue only stages, and every
        # queued entry holds a ROB slot — so the capacity provably never
        # binds and the queue is unbounded to skip the bound checks.
        self.queue = Fifo(core.sim, None,
                          f"core{core.core_id}.{self.name}.q")
        self.busy_cycles = 0
        self.ops = 0
        self._trace = core.trace
        #: bound once: every completed instruction calls it (hot path).
        self._mark_done = core.rob.mark_done
        #: busy cycles per network layer; merged chip-wide by
        #: :meth:`ChipModel._merged_layer_busy` into ``RawResult.layer_busy``.
        self.layer_cycles: dict[str, int] = {}

    def start(self, core: "CoreModel") -> None:
        self.sim.spawn(self._loop(core), f"core{self.core_id}.{self.name}")

    def _loop(self, core: "CoreModel") -> Generator:
        raise NotImplementedError

    # The pop + hazard-wait sequence is inlined in every unit loop rather
    # than shared through a helper coroutine: the units are the model
    # layer's hottest loops and a ``yield from`` helper would put one
    # extra generator frame on every instruction issued.  Keep the five
    # copies (four units + the core's flow-drainer pop) in sync:
    #
    #     ok, entry = queue.try_get()
    #     if not ok:
    #         entry = yield from queue.get()
    #     blocker = rob.oldest_conflict(entry)
    #     while blocker is not None:
    #         yield rob.ready_event(blocker)
    #         blocker = rob.oldest_conflict(entry)

    def _account(self, entry: RobEntry, start: int) -> None:
        elapsed = self.sim.now - start
        self.busy_cycles += elapsed
        self.ops += 1
        layer = entry.inst.layer
        cycles = self.layer_cycles
        cycles[layer] = cycles.get(layer, 0) + elapsed
        if self._trace is not None:
            self._trace.record(self.core_id, self.name, entry.inst)
        self._mark_done(entry)


class MatrixUnit(_UnitBase):
    name = "matrix"

    def __init__(self, core: "CoreModel") -> None:
        super().__init__(core)
        domains = core.config.core.shared_adc_domains
        self._adc = (Resource(core.sim, domains,
                              f"core{core.core_id}.adc") if domains else None)
        self._costs = core.costs
        self._pj = core.energy.pj

    def _loop(self, core: "CoreModel") -> Generator:
        queue = self.queue
        rob = core.rob
        delta_append = self.sim._delta_append
        begin = self._begin
        fast = self._adc is None
        child_name = f"core{self.core_id}.mvm"
        while True:
            ok, entry = queue.try_get()
            if not ok:
                entry = yield from queue.get()
            blocker = rob.oldest_conflict(entry)
            while blocker is not None:
                yield rob.ready_event(blocker)
                blocker = rob.oldest_conflict(entry)
            # Each MVM runs as its own child so independent groups overlap;
            # issue bandwidth is one MVM per cycle.  Without an ADC the
            # child can never block, so it needs no coroutine: ``_begin``
            # is scheduled where the spawned child's first step would run
            # and ``_finish`` where its post-latency resume would.
            if fast:
                delta_append(partial(begin, entry))
            else:
                self.sim.spawn(self._execute(entry), child_name)
            yield 1

    def _begin(self, entry: RobEntry) -> None:
        """Frame-free MVM execution, phase 1: schedule completion after
        the MVM's latency (the no-ADC twin of :meth:`_execute`)."""
        cost = self._costs[entry.pc]
        self.sim.call_after(cost[0], self._finish,
                            (entry, self.sim.now, cost))

    def _finish(self, args) -> None:
        """Frame-free MVM execution, phase 2: charge energy and complete."""
        entry, start, (_latency, xbar, dac, adc, local_mem) = args
        pj = self._pj
        pj["xbar"] += xbar
        pj["dac"] += dac
        pj["adc"] += adc
        pj["local_mem"] += local_mem
        self._account(entry, start)

    def _execute(self, entry: RobEntry) -> Generator:
        start = self.sim.now
        adc = self._adc
        if not adc.try_acquire():
            yield from adc.acquire()
        cost = self._costs[entry.pc]
        yield cost[0]
        adc.release()
        self._finish((entry, start, cost))


class VectorUnit(_UnitBase):
    """SIMD unit: one operation at a time.

    ``VSOFTMAX`` is costed as a ``VECTOR_SPECIAL_OPS`` exp pipeline;
    hand-built graphs with a standalone softmax stage (no zoo network or
    golden trace emits one) report higher, more faithful latency and
    energy than the seed's 1-element/cycle cost.
    """

    name = "vector"

    def _loop(self, core: "CoreModel") -> Generator:
        costs = core.costs
        pj = core.energy.pj
        queue = self.queue
        rob = core.rob
        while True:
            ok, entry = queue.try_get()
            if not ok:
                entry = yield from queue.get()
            blocker = rob.oldest_conflict(entry)
            while blocker is not None:
                yield rob.ready_event(blocker)
                blocker = rob.oldest_conflict(entry)
            start = self.sim.now
            latency, vector, local_mem = costs[entry.pc]
            yield latency
            pj["vector"] += vector
            pj["local_mem"] += local_mem
            self._account(entry, start)


class TransferUnit(_UnitBase):
    """In-order transfer engine with per-flow virtual output channels.

    RECV/LOAD/STORE execute serially in program order.  A SEND drains its
    payload from local memory serially, but then parks in its *flow's* own
    output queue, where a per-flow drainer pushes it through the credit
    window and the mesh — so a send blocked on a lagging consumer (a skip
    connection, a slow inception branch) never head-of-line-blocks traffic
    to other consumers.  This mirrors per-destination output FIFOs in real
    NoC interfaces and is what makes windowed synchronized transfers
    deadlock-free on arbitrary DAGs (see DESIGN.md).  The queues and their
    drainers belong to the core (:meth:`CoreBase.send_queue
    <repro.arch.core.CoreBase.send_queue>`), shared with the fast tier.
    """

    name = "transfer"

    def _loop(self, core: "CoreModel") -> Generator:
        costs = core.costs
        pj = core.energy.pj
        flows = core.flows
        gmem = core.gmem
        send_queue = core.send_queue
        queue = self.queue
        rob = core.rob
        while True:
            ok, entry = queue.try_get()
            if not ok:
                entry = yield from queue.get()
            blocker = rob.oldest_conflict(entry)
            while blocker is not None:
                yield rob.ready_event(blocker)
                blocker = rob.oldest_conflict(entry)
            inst = entry.inst
            start = self.sim.now
            cycles, local_mem = costs[entry.pc]
            if inst.op == "SEND":
                yield cycles  # drain local memory
                pj["local_mem"] += local_mem
                self.ops += 1
                ok = send_queue(inst.flow).try_put((entry, self.sim.now, inst))
                assert ok  # send queues are unbounded
                continue
            if inst.op == "RECV":
                yield from flows[inst.flow].recv(inst.seq)
                yield cycles  # fill local memory
            elif inst.op == "LOAD":
                yield from gmem.access(self.core_id, inst.bytes, write=False)
                yield cycles
            else:  # STORE
                yield cycles
                yield from gmem.access(self.core_id, inst.bytes, write=True)
            pj["local_mem"] += local_mem
            self._account(entry, start)


class ScalarUnit(_UnitBase):
    name = "scalar"

    def _loop(self, core: "CoreModel") -> Generator:
        costs = core.costs
        pj = core.energy.pj
        execute = core.execute_scalar
        queue = self.queue
        rob = core.rob
        while True:
            ok, entry = queue.try_get()
            if not ok:
                entry = yield from queue.get()
            blocker = rob.oldest_conflict(entry)
            while blocker is not None:
                yield rob.ready_event(blocker)
                blocker = rob.oldest_conflict(entry)
            inst = entry.inst
            start = self.sim.now
            latency, scalar = costs[entry.pc]
            yield latency
            execute(inst)
            pj["scalar"] += scalar
            self._account(entry, start)

