"""The four execution units of a core (Fig. 2b/2c).

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

Each unit pulls ROB entries from its issue queue, executes, charges energy
and per-layer busy time, and marks the entry done.

Issue-side hazard enforcement: a unit asks the ROB for the *oldest*
in-flight conflicting entry and waits on exactly that entry's completion
event (``ReorderBuffer.ready_event``), re-probing after each wake,
instead of being woken by every completion in the window.

The fast-fidelity walker (:mod:`repro.arch.fast`) deliberately inlines
the latency and energy arithmetic of the loops below, because it runs
once per instruction; ``tests/test_fidelity.py`` (``TestBreakdownEqual``)
gates the two copies against each other per energy category, per core
and per layer, so a change to either must keep that test green.

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

from ..isa import MvmInst, VECTOR_SPECIAL_OPS
from ..sim import Fifo, Resource
from .rob import RobEntry

if TYPE_CHECKING:  # pragma: no cover
    from .core import CoreModel

__all__ = ["MatrixUnit", "VectorUnit", "TransferUnit", "ScalarUnit"]


class _UnitBase:
    """Common queue/bookkeeping for execution units."""

    name = "?"

    def __init__(self, core: "CoreModel") -> None:
        self.core = core
        self.sim = core.sim
        self.chip = core.chip
        # Queues never throttle below the ROB window (the seed sized them
        # max(unit_queue_depth, rob_size)): the ROB is the architectural
        # lookahead limit (Fig. 4), the queue only stages, and every
        # queued entry holds a ROB slot — so the capacity provably never
        # binds and the queue is unbounded to skip the bound checks.
        self.queue = Fifo(core.sim, None,
                          f"core{core.core_id}.{self.name}.q")
        self.busy_cycles = 0
        self.ops = 0
        self._traced = core.chip.trace is not None
        #: bound once: every completed instruction calls it (hot path).
        self._mark_done = core.rob.mark_done
        #: busy cycles per network layer; merged chip-wide by
        #: :meth:`ChipModel._merged_layer_busy` into ``RawResult.layer_busy``.
        self.layer_cycles: dict[str, int] = {}

    def start(self) -> None:
        self.sim.spawn(self._loop(), f"core{self.core.core_id}.{self.name}")

    def _loop(self) -> Generator:
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
        if self._traced:
            self.chip.trace_event(self.core.core_id, self.name, entry.inst)
        self._mark_done(entry)


class MatrixUnit(_UnitBase):
    name = "matrix"

    def __init__(self, core: "CoreModel") -> None:
        super().__init__(core)
        domains = core.config.core.shared_adc_domains
        self._adc = (Resource(core.sim, domains,
                              f"core{core.core_id}.adc") if domains else None)
        # Per-config constants of the MVM latency model, hoisted off the
        # per-instruction path.
        cfg = core.config
        # Programs without MVMs may carry no group table at all.
        self._groups = core.groups.groups if core.groups is not None else {}
        self._mvm_cycles = cfg.crossbar.mvm_cycles()
        self._act_bytes = cfg.compiler.activation_bytes
        self._read_bw = cfg.core.local_memory_read_bytes_per_cycle
        self._write_bw = cfg.core.local_memory_write_bytes_per_cycle
        self._dac_phases = cfg.crossbar.dac_phases
        self._e_xbar = cfg.energy.xbar_read_pj_per_cell
        self._e_dac = cfg.energy.dac_pj_per_conversion
        self._e_adc = cfg.energy.adc_pj_per_sample
        self._e_lmem = cfg.energy.local_mem_pj_per_byte

    def _loop(self) -> Generator:
        queue = self.queue
        rob = self.core.rob
        delta_append = self.sim._delta_append
        begin = self._begin
        fast = self._adc is None
        child_name = f"core{self.core.core_id}.mvm"
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

    def _latency(self, inst: MvmInst) -> tuple[int, int, int, "object"]:
        """(cycles, local-memory bytes in, bytes out, group) of one MVM."""
        count = inst.count
        group = self._groups[inst.group]
        in_bytes = count * group.rows * self._act_bytes
        out_bytes = inst.dst_bytes
        stream = -(-in_bytes // self._read_bw) + -(-out_bytes // self._write_bw)
        return max(count * self._mvm_cycles, stream), in_bytes, out_bytes, group

    def _begin(self, entry: RobEntry) -> None:
        """Frame-free MVM execution, phase 1: compute latency and schedule
        completion (the no-ADC twin of :meth:`_execute`)."""
        latency, in_bytes, out_bytes, group = self._latency(entry.inst)
        self.sim.call_after(latency, self._finish,
                            (entry, self.sim.now, in_bytes, out_bytes, group))

    def _finish(self, args) -> None:
        """Frame-free MVM execution, phase 2: charge energy and complete.

        The inlined charges mirror ``EnergyMeter.mvm`` + ``local_mem``
        term by term, in the same multiplication order (float sums must
        stay bit-comparable to the seed's)."""
        entry, start, in_bytes, out_bytes, group = args
        rows = group.rows
        cols = group.cols
        count = entry.inst.count
        phases = self._dac_phases
        pj = self.chip.energy.pj
        pj["xbar"] += self._e_xbar * rows * cols * count
        pj["dac"] += self._e_dac * rows * phases * count
        pj["adc"] += self._e_adc * cols * phases * count
        pj["local_mem"] += self._e_lmem * (in_bytes + out_bytes)
        self._account(entry, start)

    def _execute(self, entry: RobEntry) -> Generator:
        start = self.sim.now
        adc = self._adc
        if not adc.try_acquire():
            yield from adc.acquire()
        latency, in_bytes, out_bytes, group = self._latency(entry.inst)
        yield latency
        adc.release()
        self._finish((entry, start, in_bytes, out_bytes, group))


class VectorUnit(_UnitBase):
    """SIMD unit with a per-op cost model.

    Plain element-wise ops retire ``vector_lanes`` elements per cycle at
    ``vector_pj_per_element``.  Two op classes cost differently (the
    attention extension):

    * ``VECTOR_SPECIAL_OPS`` (softmax / layernorm / gelu) run an exp /
      rsqrt / erf micro-pipeline per element:
      ``vector_special_cycles_per_element`` cycles of ALU time and
      ``vector_special_pj_per_element`` of energy per element;
    * ``VMATMUL`` — the dynamic activation x activation product that
      cannot live in crossbars — counts ``length`` multiply-accumulates
      (``vector_lanes`` MACs/cycle, ``vector_mac_pj`` each).

    All other opcodes keep the exact seed arithmetic (order included),
    so CNN simulations stay bit-identical to the golden recordings.
    Note ``VSOFTMAX`` predates this model but joins the special class —
    softmax *is* an exp pipeline, and the seed's 1-element/cycle cost
    undercharged it; no zoo network or golden trace emits it, but
    hand-built graphs with a standalone softmax stage will report higher
    (more faithful) latency/energy than under the seed.
    """

    name = "vector"

    def _loop(self) -> Generator:
        cfg = self.core.config
        lanes = cfg.core.vector_lanes
        issue = cfg.core.vector_issue_cycles
        special_cycles = cfg.core.vector_special_cycles_per_element
        read_bw = cfg.core.local_memory_read_bytes_per_cycle
        write_bw = cfg.core.local_memory_write_bytes_per_cycle
        # Inlined energy charges mirror ``EnergyMeter.vector_op`` /
        # ``vector_special_op`` / ``vector_macs`` term by term, in the
        # same multiplication order (bit-comparable sums).
        e_vector = cfg.energy.vector_pj_per_element
        e_special = cfg.energy.vector_special_pj_per_element
        e_mac = cfg.energy.vector_mac_pj
        e_lmem = cfg.energy.local_mem_pj_per_byte
        special = VECTOR_SPECIAL_OPS
        pj = self.core.chip.energy.pj
        queue = self.queue
        rob = self.core.rob
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
            length = inst.length
            if inst.n_sources == 2:
                read_bytes = inst.src_bytes + (inst.src2_bytes
                                               or inst.src_bytes)
            else:
                read_bytes = inst.src_bytes
            op = inst.op
            if op == "VMATMUL":
                e_elem = e_mac           # length counts MACs
                alu = -(-length // lanes)
            elif op in special:
                e_elem = e_special
                alu = -(-length * special_cycles // lanes)
            else:
                e_elem = e_vector
                alu = -(-length // lanes)
            stream = max(-(-read_bytes // read_bw),
                         -(-inst.dst_bytes // write_bw))
            yield issue + max(alu, stream)
            pj["vector"] += e_elem * length
            pj["local_mem"] += e_lmem * (read_bytes + inst.dst_bytes)
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

    def _loop(self) -> Generator:
        cfg = self.core.config
        read_bw = cfg.core.local_memory_read_bytes_per_cycle
        write_bw = cfg.core.local_memory_write_bytes_per_cycle
        chip = self.core.chip
        send_queue = self.core.send_queue
        queue = self.queue
        rob = self.core.rob
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
            if inst.op == "SEND":
                yield math.ceil(inst.bytes / read_bw)  # drain local memory
                chip.energy.local_mem(cfg.energy, inst.bytes)
                self.ops += 1
                ok = send_queue(inst.flow).try_put((entry, self.sim.now, inst))
                assert ok  # send queues are unbounded
                continue
            if inst.op == "RECV":
                yield from chip.flow(inst.flow).recv(inst.seq)
                yield math.ceil(inst.bytes / write_bw)  # fill local memory
            elif inst.op == "LOAD":
                yield from chip.gmem.access(self.core.core_id, inst.bytes,
                                            write=False)
                yield math.ceil(inst.bytes / write_bw)
            else:  # STORE
                yield math.ceil(inst.bytes / read_bw)
                yield from chip.gmem.access(self.core.core_id, inst.bytes,
                                            write=True)
            chip.energy.local_mem(cfg.energy, inst.bytes)
            self._account(entry, start)


class ScalarUnit(_UnitBase):
    name = "scalar"

    def _loop(self) -> Generator:
        cfg = self.core.config
        latency = max(1, cfg.core.scalar_cycles)
        energy = self.core.chip.energy
        execute = self.core.execute_scalar
        queue = self.queue
        rob = self.core.rob
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
            yield latency
            execute(inst)
            energy.scalar_op(cfg.energy)
            self._account(entry, start)

