"""Chip model: cores + mesh NoC + global memory, and the run loop.

:func:`run_program` is the simulator entry point: it instantiates the
hardware described by the architecture configuration, loads the compiled
chip program, runs the event kernel to completion and returns a
:class:`RawResult` with cycles, energy and per-layer/per-core activity.
It has no tier branch: :meth:`ChipModel._make_core` reads
``config.sim.fidelity`` and picks each core's model.

Deadlocks (a protocol bug, e.g. hand-written programs with unmatched
transfers) are detected when the event queue drains with cores still
unhalted, and reported with per-core program counters and flow states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ArchConfig, validate
from ..isa import ChipProgram, ProgramError
from ..sim import AllOf, DeadlockError, Simulator
from .core import CoreModel
from .energy import EnergyMeter
from .fast import FastCore
from .flows import FlowChannel
from .noc import GlobalMemory, MeshNoc

__all__ = ["ChipModel", "RawResult", "run_program"]


@dataclass
class RawResult:
    """Raw simulator outputs (wrapped by :mod:`repro.runner.results`)."""

    cycles: int
    energy_pj: dict[str, float]
    #: layer -> unit -> busy cycles.
    layer_busy: dict[str, dict[str, int]]
    per_core: dict[int, dict]
    noc: dict[str, int]
    flow_stalls: int
    meta: dict = field(default_factory=dict)
    #: core -> layer -> vector-unit busy cycles (the un-merged view behind
    #: ``layer_busy``'s vector column; how token-sharded attention work
    #: spreads over a shard group is only visible here).
    vector_layer_cycles: dict[int, dict[str, int]] = field(default_factory=dict)
    #: (cycle, core, unit, instruction) completion trace, when enabled.
    trace: list[tuple[int, int, str, str]] | None = None

    @property
    def total_energy_pj(self) -> float:
        return sum(self.energy_pj.values())


class CompletionTrace:
    """The completion trace ``sim.trace`` enables: one ``(cycle, core,
    unit, instruction repr)`` per completed instruction, at most ``limit``
    of them; a run that dropped events reports ``meta["trace_truncated"]``.
    """

    __slots__ = ("sim", "events", "limit", "truncated")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.events: list[tuple[int, int, str, str]] = []
        self.limit = 200_000
        self.truncated = False

    def record(self, core: int, unit: str, inst) -> None:
        if len(self.events) < self.limit:
            self.events.append((self.sim.now, core, unit, repr(inst)))
        else:
            self.truncated = True


class ChipModel:
    """The simulated accelerator."""

    def __init__(self, program: ChipProgram, config: ArchConfig) -> None:
        validate(config)
        # Cores address their cost and blocker tables by stream position,
        # and only a sealed program can no longer grow past its tables.
        for core_id, core_program in program.programs.items():
            if not core_program.sealed:
                raise ProgramError(f"core {core_id}: program is not sealed")
        self.program = program
        self.config = config
        self.sim = Simulator()
        self.energy = EnergyMeter()
        self.noc = MeshNoc(self.sim, config, self.energy)
        self.gmem = GlobalMemory(self.sim, config, self.noc, self.energy)
        #: flow id -> the windowed channel carrying it.
        self.flows: dict[int, FlowChannel] = {}
        for flow_id, info in program.flows.items():
            window = info.window or config.noc.sync_window
            self.flows[flow_id] = FlowChannel(self.sim, info, self.noc, window)
        self.trace = CompletionTrace(self.sim) if config.sim.trace else None
        # Cores and units copy what they use from the chip at construction
        # and keep no reference back to it (nor units to their core): the
        # finished model is then freed by reference counting.
        self.cores = {
            core_id: self._make_core(core_program)
            for core_id, core_program in sorted(program.programs.items())
        }
        self._finished = False

    def _make_core(self, program):
        """The one per-core tier decision: an analytic walker core where
        the configuration asks for the fast tier and the recurrences
        apply, a cycle-accurate core everywhere else."""
        cfg = self.config
        # Tracing wants per-instruction events, shared-ADC domains
        # arbitrate a Resource the recurrences cannot fold, and a branchy
        # program has no static blocker table (its ROB scans a window).
        if (cfg.sim.fidelity == "fast" and not cfg.sim.trace
                and not cfg.core.shared_adc_domains
                and program.static_blockers(cfg.core.rob_size) is not None):
            return FastCore(self, program)
        return CoreModel(self, program)

    def _merged_layer_busy(self) -> dict[str, dict[str, int]]:
        """layer -> unit -> busy cycles, merged from the per-unit tallies
        (units accumulate locally so the per-instruction hot path pays one
        dict bump instead of a chip-level method call)."""
        merged: dict[str, dict[str, int]] = {}
        for core in self.cores.values():
            for unit in core.units.values():
                for layer, cycles in unit.layer_cycles.items():
                    per_unit = merged.setdefault(layer or "<untagged>", {})
                    per_unit[unit.name] = per_unit.get(unit.name, 0) + cycles
        return merged

    # -- running ------------------------------------------------------------------

    def run(self, max_cycles: int | None = None) -> RawResult:
        sim = self.sim
        sim.spawn(self._completion_watcher(), "chip.watcher")
        for core in self.cores.values():
            core.start()
        limit = max_cycles if max_cycles is not None else self.config.sim.max_cycles
        try:
            sim.run(until=limit, detect_deadlock=False)
            if not self._finished:
                raise DeadlockError(self._diagnose(limit))
            return self._collect()
        finally:
            # Results and diagnosis have read the kernel state: release the
            # blocked processes and the event queues on every path.
            sim.close()

    def _completion_watcher(self):
        yield AllOf(*[core.halted for core in self.cores.values()])
        self._finished = True
        self.sim.stop()

    def _diagnose(self, limit: int | None) -> str:
        stuck = [c for c in self.cores.values() if c.halt_time is None]
        lines = []
        if limit is not None and self.sim.now >= limit:
            lines.append(f"simulation exceeded max_cycles={limit}")
        else:
            lines.append(f"simulation deadlocked at cycle {self.sim.now}")
        lines.append(f"{len(stuck)}/{len(self.cores)} cores not halted:")
        for core in stuck[:8]:
            inflight = [repr(e.inst) for e in core.rob.entries if not e.done][:3]
            lines.append(
                f"  core {core.core_id}: issued={core.issued}/"
                f"{len(core.program)} in-flight={inflight}"
            )
        waiting = [f for f in self.flows.values()
                   if f.info.n_messages and f.outstanding]
        for flowch in waiting[:8]:
            lines.append(f"  pending {flowch!r}")
        return "\n".join(lines)

    def _collect(self) -> RawResult:
        cycles = self.sim.now
        seconds = cycles * self.config.sim.cycle_seconds
        # No power gating: the whole core array leaks for the full run
        # (this is why the paper's Fig. 3 energy ratios track its latency
        # ratios so closely).
        self.energy.add_leakage(self.config.energy, self.config.chip.n_cores,
                                seconds)
        meta = {"network": self.program.network, **self.program.meta}
        trace = self.trace
        if trace is not None and trace.truncated:
            meta["trace_truncated"] = True
        if self.config.sim.fidelity == "fast":  # cycle reports: unmarked
            meta["fidelity"] = "fast"
            meta["analytic_runs"] = sum(
                core.analytic_runs for core in self.cores.values()
                if type(core) is FastCore)
            meta["fallback_events"] = sum(
                core.fallback_events if type(core) is FastCore
                else core.issued for core in self.cores.values())
        return RawResult(
            cycles=cycles,
            energy_pj=self.energy.to_dict(),
            layer_busy=self._merged_layer_busy(),
            per_core={cid: core.stats() for cid, core in self.cores.items()},
            vector_layer_cycles={
                cid: dict(core.units["vector"].layer_cycles)
                for cid, core in self.cores.items()
                if core.units["vector"].layer_cycles
            },
            noc={
                "messages": self.noc.messages_sent,
                "bytes": self.noc.bytes_sent,
                "byte_hops": self.noc.byte_hops,
                "gmem_read": self.gmem.bytes_read,
                "gmem_written": self.gmem.bytes_written,
                "hottest_links": self.noc.hottest_links(),
            },
            flow_stalls=sum(f.stall_cycles for f in self.flows.values()),
            meta=meta,
            trace=trace.events if trace is not None else None,
        )


def run_program(program: ChipProgram, config: ArchConfig, *,
                max_cycles: int | None = None) -> RawResult:
    """Simulate a compiled chip program to completion (at the tier
    ``config.sim.fidelity`` names; :meth:`ChipModel._make_core` applies
    it core by core)."""
    return ChipModel(program, config).run(max_cycles=max_cycles)
