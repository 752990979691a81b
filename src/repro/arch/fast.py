"""Fast-fidelity chip model: batched analytic core execution (ROADMAP 3a).

:func:`~repro.arch.chip.run_program` dispatches here when
``config.sim.fidelity == "fast"``.  The chip keeps the real event kernel,
flow channels, mesh NoC and global memory — everything cross-core stays
event-driven — but each straight-line core's five kernel processes (the
issue loop and four execution units) collapse into ONE walker generator:

* compute instructions (matrix / vector / scalar) advance through pure
  integer recurrences: the front-end pacing, the ROB's in-order
  retirement frontier, the static-blocker waits (the per-program lag
  tables of :meth:`~repro.isa.Program.static_blockers`, read at ring
  slot ``index - lag``) and per-unit serialization that decide a start
  cycle are all arithmetic over known completion times, so a whole
  straight-line compute run costs zero kernel events;
* transfer instructions (SEND / RECV / LOAD / STORE) execute against the
  real flow channels and global memory at their computed start cycle:
  the walker advances simulated time there and runs the same coroutines
  the cycle-accurate transfer unit would.  SENDs go through the per-flow
  drainers both tiers share (:class:`~repro.arch.core.CoreBase`), so
  credit windows, link contention and cross-core backpressure behave
  identically; a SEND's completion enters the analytic window as a
  :class:`~repro.sim.PendingCompletion` that later readers resolve
  against the kernel.

:class:`FastCore` and the cycle-accurate
:class:`~repro.arch.core.CoreModel` share one chassis — identity, halt
state, counters, scalar ALU, SEND drainer and the per-core ``stats()``
contract — and differ only in how they time instructions.  Cores the
recurrences cannot cover — branchy programs (no static blocker table),
shared-ADC arbitration, or instruction tracing — fall back to
``CoreModel`` inside the same chip, so mixed chips stay exact where they
must be.

Accuracy: compute timing is computed retroactively (it never depends on
the walker's real position in simulated time), with one deviation
source: a walker that must wait for an in-flight SEND — as a hazard
blocker or at the retirement frontier — blocks in real simulated time,
which can floor a *later* transfer's start at that wait's end where the
cycle-accurate core would have started it earlier.
``tools/check_fidelity.py`` bounds the resulting total-cycle deviation at
2% across the whole model zoo.  The walker deliberately inlines the unit
loops' latency and energy arithmetic (:mod:`repro.arch.units`);
``tests/test_fidelity.py`` (``TestBreakdownEqual``) is the gate that
keeps the two copies equal — per energy category, per-core unit
busy/ops/ROB stalls and per-layer busy cycles — so edit either side only
with that test green.
"""

from __future__ import annotations

import math
from typing import Generator

from ..isa import VECTOR_SPECIAL_OPS, MvmInst, Program, ScalarInst, VectorInst
from ..sim import AnalyticWindow, PendingCompletion
from .chip import ChipModel, RawResult
from .core import CoreBase, CoreModel

__all__ = ["FastChipModel", "FastCore"]


class _AnalyticUnit:
    """Per-unit tallies of a walker core (collection-compatible with the
    cycle-accurate units: ``name`` / ``busy_cycles`` / ``ops`` /
    ``layer_cycles`` are all :class:`~repro.arch.chip.ChipModel` reads)."""

    __slots__ = ("name", "busy_cycles", "ops", "layer_cycles")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_cycles = 0
        self.ops = 0
        self.layer_cycles: dict[str, int] = {}


class _RobShim:
    """What :meth:`ChipModel._diagnose` and :meth:`CoreBase.stats` need
    from a walker core's (virtual) ROB."""

    __slots__ = ("entries", "occupancy_peak")

    def __init__(self) -> None:
        self.entries: tuple = ()
        self.occupancy_peak = 0


class FastCore(CoreBase):
    """One straight-line core executed by the analytic walker.

    Builds no ROB and no event-driven units: chip construction is per-run
    cost (every decode step builds a fresh chip).
    """

    def __init__(self, chip: "FastChipModel", program: Program) -> None:
        super().__init__(chip, program)
        self.units = {name: _AnalyticUnit(name)
                      for name in ("matrix", "vector", "transfer", "scalar")}
        self.rob = _RobShim()
        #: maximal straight-line compute runs advanced analytically.
        self.analytic_runs = 0
        #: instructions executed through the event kernel (transfers).
        self.fallback_events = 0

    def start(self) -> None:
        self.sim.spawn(self._walk(), f"core{self.core_id}.walk")

    def _send_done(self, pending: PendingCompletion) -> None:
        pending.resolve(self.sim.now)

    # -- the walker -----------------------------------------------------------

    def _walk(self) -> Generator:
        """Advance the whole program: compute runs analytically,
        transfers in real simulated time.

        The start-cycle recurrences replay the cycle-accurate core
        exactly (front-end: 1 cycle per ``fetch_width`` after the
        decode+dispatch fill, stalled to the retirement frontier when
        the ROB is full; units: serialized per unit — the matrix unit
        frees after 1 issue cycle, children overlap — floored by the
        oldest-blocker completion max).  Latency and energy arithmetic
        is the unit loops' (gated by ``tests/test_fidelity.py``, see the
        module docstring); it is inlined here because this loop runs
        once per instruction.
        """
        sim = self.sim
        chip = self.chip
        cfg = self.config
        core_cfg = cfg.core
        rob_size = core_cfg.rob_size
        blockers_tab = self.program.static_blockers(rob_size)
        # Ring sizing and index masking match the ROB's static table
        # mode, so blocker lookups hit the slots the cycle tier's would.
        window = AnalyticWindow(rob_size)
        ring, mask = window.ring, window.mask

        fetch_width = core_cfg.fetch_width
        single_issue = fetch_width == 1
        read_bw = core_cfg.local_memory_read_bytes_per_cycle
        write_bw = core_cfg.local_memory_write_bytes_per_cycle
        lanes = core_cfg.vector_lanes
        v_issue = core_cfg.vector_issue_cycles
        special_cycles = core_cfg.vector_special_cycles_per_element
        scalar_latency = max(1, core_cfg.scalar_cycles)
        mvm_cycles = cfg.crossbar.mvm_cycles()
        act_bytes = cfg.compiler.activation_bytes
        dac_phases = cfg.crossbar.dac_phases
        groups = self.groups.groups if self.groups is not None else {}
        special = VECTOR_SPECIAL_OPS

        e = cfg.energy
        e_xbar = e.xbar_read_pj_per_cell
        e_dac = e.dac_pj_per_conversion
        e_adc = e.adc_pj_per_sample
        e_vector = e.vector_pj_per_element
        e_special = e.vector_special_pj_per_element
        e_mac = e.vector_mac_pj
        e_lmem = e.local_mem_pj_per_byte
        energy = chip.energy
        pj = energy.pj

        matrix = self.units["matrix"]
        vector = self.units["vector"]
        transfer = self.units["transfer"]
        scalar = self.units["scalar"]
        m_layers = matrix.layer_cycles
        v_layers = vector.layer_cycles
        s_layers = scalar.layer_cycles
        t_layers = transfer.layer_cycles

        fill = core_cfg.decode_cycles + core_cfg.dispatch_cycles
        if fill:
            yield fill
        vt = sim.now  # front-end virtual clock
        issued = 0
        matrix_free = 0
        vector_free = 0
        scalar_free = 0
        transfer_free = 0
        rob_stall = 0
        in_run = False
        n_runs = 0
        n_fallback = 0
        last_index = -1
        outstanding: list[PendingCompletion] = []

        for inst in self.program.instructions:
            tinst = type(inst)
            if tinst is ScalarInst and inst.is_control:
                break  # straight-line programs: a (possibly early) HALT
            index = inst.index
            last_index = index
            # ROB-full: the front-end runs at most rob_size entries
            # ahead of the in-order retirement frontier.
            bound = index - rob_size
            if bound >= 0 and window._retired < bound:
                pending = window.advance_frontier(bound)
                while pending is not None:
                    self.issued = issued  # current at every kernel yield
                    yield pending.event()
                    pending = window.advance_frontier(bound)
            if bound >= 0:
                frontier = window.retire_frontier
                if frontier > vt:
                    rob_stall += frontier - vt
                    vt = frontier
            alloc = vt
            issued += 1
            if single_issue or issued % fetch_width == 0:
                vt += 1
            # Oldest-blocker wait: in cycle mode the unit waits blocker
            # by blocker; the start cycle it lands on is the completion
            # max over the static predecessor set.
            bmax = 0
            for lag in blockers_tab[index]:
                slot = (index - lag) & mask
                done = ring[slot]
                if type(done) is not int:
                    if done.done_at is None:
                        self.issued = issued
                        yield done.event()  # real wait on an in-flight SEND
                    done = done.done_at
                    ring[slot] = done
                if done > bmax:
                    bmax = done

            if tinst is MvmInst:
                start = alloc
                if matrix_free > start:
                    start = matrix_free
                if bmax > start:
                    start = bmax
                matrix_free = start + 1  # 1 MVM issue/cycle, children overlap
                count = inst.count
                group = groups[inst.group]
                in_bytes = count * group.rows * act_bytes
                out_bytes = inst.dst_bytes
                stream = -(-in_bytes // read_bw) + -(-out_bytes // write_bw)
                latency = count * mvm_cycles
                if stream > latency:
                    latency = stream
                ring[index & mask] = start + latency
                rows = group.rows
                pj["xbar"] += e_xbar * rows * group.cols * count
                pj["dac"] += e_dac * rows * dac_phases * count
                pj["adc"] += e_adc * group.cols * dac_phases * count
                pj["local_mem"] += e_lmem * (in_bytes + out_bytes)
                matrix.busy_cycles += latency
                matrix.ops += 1
                layer = inst.layer
                m_layers[layer] = m_layers.get(layer, 0) + latency
                in_run = True
                continue

            if tinst is VectorInst:
                start = alloc
                if vector_free > start:
                    start = vector_free
                if bmax > start:
                    start = bmax
                length = inst.length
                if inst.n_sources == 2:
                    read_bytes = inst.src_bytes + (inst.src2_bytes
                                                   or inst.src_bytes)
                else:
                    read_bytes = inst.src_bytes
                op = inst.op
                if op == "VMATMUL":
                    e_elem = e_mac
                    alu = -(-length // lanes)
                elif op in special:
                    e_elem = e_special
                    alu = -(-length * special_cycles // lanes)
                else:
                    e_elem = e_vector
                    alu = -(-length // lanes)
                stream = max(-(-read_bytes // read_bw),
                             -(-inst.dst_bytes // write_bw))
                latency = v_issue + (alu if alu > stream else stream)
                vector_free = start + latency
                ring[index & mask] = vector_free
                pj["vector"] += e_elem * length
                pj["local_mem"] += e_lmem * (read_bytes + inst.dst_bytes)
                vector.busy_cycles += latency
                vector.ops += 1
                layer = inst.layer
                v_layers[layer] = v_layers.get(layer, 0) + latency
                in_run = True
                continue

            if tinst is ScalarInst:
                start = alloc
                if scalar_free > start:
                    start = scalar_free
                if bmax > start:
                    start = bmax
                scalar_free = start + scalar_latency
                ring[index & mask] = scalar_free
                self.execute_scalar(inst)
                energy.scalar_op(e)
                scalar.busy_cycles += scalar_latency
                scalar.ops += 1
                layer = inst.layer
                s_layers[layer] = s_layers.get(layer, 0) + scalar_latency
                in_run = True
                continue

            # TransferInst: the kernel boundary.  Advance real simulated
            # time to the computed start and run the real coroutines.
            if in_run:
                n_runs += 1
                in_run = False
            n_fallback += 1
            self.issued = issued
            start = alloc
            if transfer_free > start:
                start = transfer_free
            if bmax > start:
                start = bmax
            now = sim.now
            if start < now:  # real time cannot rewind (see module docs)
                start = now
            op = inst.op
            nbytes = inst.bytes
            if op == "SEND":
                busy_until = start + math.ceil(nbytes / read_bw)
                if busy_until > now:
                    yield busy_until - now
                energy.local_mem(e, nbytes)
                transfer.ops += 1
                pending = PendingCompletion(
                    sim, f"core{self.core_id}.send{index}")
                ring[index & mask] = pending
                outstanding.append(pending)
                ok = self.send_queue(inst.flow).try_put(
                    (pending, sim.now, inst))
                assert ok  # send queues are unbounded
                transfer_free = busy_until
                continue
            if start > now:
                yield start - now
            if op == "RECV":
                yield from chip.flow(inst.flow).recv(inst.seq)
                yield math.ceil(nbytes / write_bw)  # fill local memory
            elif op == "LOAD":
                yield from chip.gmem.access(self.core_id, nbytes,
                                            write=False)
                yield math.ceil(nbytes / write_bw)
            else:  # STORE
                yield math.ceil(nbytes / read_bw)
                yield from chip.gmem.access(self.core_id, nbytes,
                                            write=True)
            energy.local_mem(e, nbytes)
            done = sim.now
            ring[index & mask] = done
            elapsed = done - start
            transfer.busy_cycles += elapsed
            transfer.ops += 1
            layer = inst.layer
            t_layers[layer] = t_layers.get(layer, 0) + elapsed
            transfer_free = done

        if in_run:
            n_runs += 1
        self.issued = issued
        # Drain: resolve in-flight sends, retire everything, halt at the
        # later of the front-end clock and the last retirement.
        for pending in outstanding:
            if pending.done_at is None:
                yield pending.event()
        pending = window.advance_frontier(last_index)
        while pending is not None:  # pragma: no cover - resolved above
            yield pending.event()
            pending = window.advance_frontier(last_index)
        halt_t = vt
        if window.retire_frontier > halt_t:
            halt_t = window.retire_frontier
        now = sim.now
        if halt_t > now:
            yield halt_t - now
        self.rob_stall_cycles = rob_stall
        self.analytic_runs = n_runs
        self.fallback_events = n_fallback
        self.rob.occupancy_peak = min(issued, rob_size)
        self.halt_time = sim.now
        self.halted.notify()


class FastChipModel(ChipModel):
    """The fast-fidelity chip: walker cores where the analytic
    recurrences apply, cycle-accurate cores everywhere else."""

    def _make_core(self, program: Program):
        cfg = self.config
        if cfg.sim.trace or cfg.core.shared_adc_domains:
            # Tracing wants per-instruction events; shared-ADC domains
            # arbitrate a Resource the recurrences cannot fold.
            return CoreModel(self, program)
        if not program.sealed \
                or program.static_blockers(cfg.core.rob_size) is None:
            return CoreModel(self, program)  # branchy: ROB window scan
        return FastCore(self, program)

    def _collect(self) -> RawResult:
        raw = super()._collect()
        runs = 0
        fallback = 0
        for core in self.cores.values():
            if type(core) is FastCore:
                runs += core.analytic_runs
                fallback += core.fallback_events
            else:
                fallback += core.issued
        raw.meta["fidelity"] = "fast"
        raw.meta["analytic_runs"] = runs
        raw.meta["fallback_events"] = fallback
        return raw
