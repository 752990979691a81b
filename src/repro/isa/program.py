"""Per-core instruction streams and the whole-chip program.

A :class:`Program` is one core's instruction list plus its group table and
local-memory layout metadata.  A :class:`ChipProgram` bundles the per-core
programs with chip-wide flow metadata (which SEND matches which RECV) and
the compiler's layer placement summary — everything the simulator and the
static verifier need.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .groups import GroupTable
from .instructions import Instruction, ScalarInst, TransferInst

__all__ = ["Program", "ChipProgram", "FlowInfo", "ProgramError"]


class ProgramError(ValueError):
    """Malformed program (missing halt, dangling flow, bad group id …)."""


@dataclass
class Program:
    """Instruction stream of one core."""

    core: int
    instructions: list[Instruction] = field(default_factory=list)
    groups: GroupTable | None = None
    #: highest local-memory byte used (for capacity checks/report).
    local_memory_used: int = 0
    _sealed: bool = False

    def append(self, inst: Instruction) -> Instruction:
        if self._sealed:
            raise ProgramError(f"core {self.core}: program is sealed")
        self.instructions.append(inst)
        return inst

    def extend(self, insts: list[Instruction]) -> None:
        for inst in insts:
            self.append(inst)

    def seal(self) -> "Program":
        """Terminate with HALT (if absent), number instructions, freeze."""
        if not self.instructions or not (
            isinstance(self.instructions[-1], ScalarInst)
            and self.instructions[-1].op == "HALT"
        ):
            self.instructions.append(ScalarInst(op="HALT"))
        for index, inst in enumerate(self.instructions):
            inst.index = index
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def counts_by_unit(self) -> dict[str, int]:
        """Instruction histogram across the four execution units."""
        counts: dict[str, int] = {"matrix": 0, "vector": 0, "transfer": 0, "scalar": 0}
        for inst in self.instructions:
            counts[inst.unit] += 1
        return counts

    def static_blockers(self, window: int) -> tuple | None:
        """Per-instruction static hazard predecessors under a ``window``-entry
        ROB, or ``None`` when the program branches.

        For a straight-line program (no branches — compiled programs are
        straight-line; a trailing ``HALT`` is fine) the ROB's in-flight set
        when instruction ``i`` dispatches is always a subset of the
        ``window - 1`` instructions before it in program order, so which
        older instructions can ever block ``i`` is a *static* property:
        ``result[i]`` is the ascending tuple of indices ``j`` with
        ``i - j < window`` whose dependence footprint conflicts with
        ``i``'s.  The simulator's hazard checks then reduce to done-flag
        tests on those entries (:class:`~repro.arch.rob.ReorderBuffer`
        consumes this), with no per-issue window scan.

        Computed by one program-order sweep over footprint-indexed
        last-access maps and cached per ``window``, so repeated
        simulations of one compiled program — ROB sweeps, batched runs,
        benchmark repetitions — pay the dependence analysis once.
        """
        cache = getattr(self, "_blocker_cache", None)
        if cache is None:
            cache = self._blocker_cache = {}
        try:
            return cache[window]
        except KeyError:
            pass
        table = _build_static_blockers(self.instructions, window)
        cache[window] = table
        return table

    def listing(self, limit: int | None = None) -> str:
        """Readable assembly-style dump (first ``limit`` instructions)."""
        lines = [f"core {self.core}: {len(self.instructions)} instructions"]
        shown = self.instructions if limit is None else self.instructions[:limit]
        for inst in shown:
            tag = f"  {inst.index:>6}  {inst!r}"
            if inst.layer:
                tag += f"    ; {inst.layer}"
            lines.append(tag)
        if limit is not None and len(self.instructions) > limit:
            lines.append(f"  ... {len(self.instructions) - limit} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class FlowInfo:
    """One producer->consumer message stream created by the compiler."""

    flow_id: int
    src_core: int
    dst_core: int
    layer: str
    n_messages: int
    bytes_per_message: int
    #: credit window (receiver ring depth); 0 = simulator default.
    window: int = 0
    #: what the stream carries: ``data`` (producer tiles to a consumer
    #: core), ``partial`` (split-weight partial sums to the home core) or
    #: ``shard`` (a token-shard's finished output tiles to the home core).
    kind: str = "data"


@dataclass
class ChipProgram:
    """All per-core programs plus chip-wide metadata."""

    network: str
    programs: dict[int, Program] = field(default_factory=dict)
    flows: dict[int, FlowInfo] = field(default_factory=dict)
    #: layer name -> list of core ids that hold (part of) its weights.
    layer_cores: dict[str, list[int]] = field(default_factory=dict)
    #: free-form compiler statistics for reports.
    meta: dict = field(default_factory=dict)

    def program(self, core: int) -> Program:
        try:
            return self.programs[core]
        except KeyError:
            raise ProgramError(f"no program for core {core}") from None

    @property
    def cores_used(self) -> list[int]:
        return sorted(self.programs)

    @property
    def total_instructions(self) -> int:
        return sum(len(p) for p in self.programs.values())

    def counts_by_unit(self) -> dict[str, int]:
        totals: dict[str, int] = {"matrix": 0, "vector": 0, "transfer": 0, "scalar": 0}
        for program in self.programs.values():
            for unit, count in program.counts_by_unit().items():
                totals[unit] += count
        return totals

    def sends_by_flow(self) -> dict[int, list[TransferInst]]:
        """All SEND instructions grouped by flow (verification helper)."""
        out: dict[int, list[TransferInst]] = {}
        for program in self.programs.values():
            for inst in program:
                if isinstance(inst, TransferInst) and inst.op == "SEND":
                    out.setdefault(inst.flow, []).append(inst)
        return out

    def recvs_by_flow(self) -> dict[int, list[TransferInst]]:
        """All RECV instructions grouped by flow (verification helper)."""
        out: dict[int, list[TransferInst]] = {}
        for program in self.programs.values():
            for inst in program:
                if isinstance(inst, TransferInst) and inst.op == "RECV":
                    out.setdefault(inst.flow, []).append(inst)
        return out

    def summary(self) -> str:
        counts = self.counts_by_unit()
        lines = [
            f"chip program for {self.network!r}:",
            f"  cores used      : {len(self.programs)}",
            f"  instructions    : {self.total_instructions:,}"
            f" (matrix={counts['matrix']:,} vector={counts['vector']:,}"
            f" transfer={counts['transfer']:,} scalar={counts['scalar']:,})",
            f"  flows           : {len(self.flows)}",
            f"  layers placed   : {len(self.layer_cores)}",
        ]
        return "\n".join(lines)


def _build_static_blockers(instructions: list[Instruction],
                           window: int) -> tuple | None:
    """One-sweep static dependence analysis for ``Program.static_blockers``.

    Maintains footprint-indexed maps of the last ``window - 1``
    instructions' register/group/memory accesses while walking the program
    in order; each instruction's conflicting predecessors are read
    straight out of the buckets its own footprint names.  Returns ``None``
    on the first branch (allocation order is no longer program order) —
    the ROB's window scan handles those programs.
    """
    group_users: dict[int, list[int]] = {}
    reg_readers: dict[int, list[int]] = {}
    reg_writers: dict[int, list[int]] = {}
    mem_readers: deque = deque()  # (lo, hi, index), ascending index
    mem_writers: deque = deque()
    out: list[tuple[int, ...]] = []
    for i, inst in enumerate(instructions):
        if isinstance(inst, ScalarInst) and inst.is_control:
            if inst.op != "HALT":
                return None  # branchy: fall back to the ROB's window scan
            out.append(())  # HALT is handled at dispatch, never allocated
            continue
        try:
            fp = inst._fp
        except AttributeError:
            fp = inst._footprint()
        groups, reads_r, writes_r, reads_m, writes_m = fp
        bound = i - window + 1
        conf: set[int] = set()
        for g in groups:
            for j in group_users.get(g, ()):
                if j >= bound:
                    conf.add(j)
        for r in reads_r:
            for j in reg_writers.get(r, ()):
                if j >= bound:
                    conf.add(j)
        for r in writes_r:
            for j in reg_writers.get(r, ()):
                if j >= bound:
                    conf.add(j)
            for j in reg_readers.get(r, ()):
                if j >= bound:
                    conf.add(j)
        if reads_m or writes_m:
            while mem_writers and mem_writers[0][2] < bound:
                mem_writers.popleft()
            for olo, ohi, j in mem_writers:
                for lo, hi in reads_m:
                    if lo < ohi and olo < hi:
                        conf.add(j)
                        break
                else:
                    for lo, hi in writes_m:
                        if lo < ohi and olo < hi:
                            conf.add(j)
                            break
        if writes_m:
            while mem_readers and mem_readers[0][2] < bound:
                mem_readers.popleft()
            for olo, ohi, j in mem_readers:
                for lo, hi in writes_m:
                    if lo < ohi and olo < hi:
                        conf.add(j)
                        break
        # Record this instruction's own accesses (prune lazily: the
        # per-element lists stay short because older indices age out of
        # the window and are dropped on the next touch).
        for g in groups:
            users = group_users.setdefault(g, [])
            if users and users[0] < bound:
                users[:] = [j for j in users if j >= bound]
            users.append(i)
        for r in reads_r:
            readers = reg_readers.setdefault(r, [])
            if readers and readers[0] < bound:
                readers[:] = [j for j in readers if j >= bound]
            readers.append(i)
        for r in writes_r:
            writers = reg_writers.setdefault(r, [])
            if writers and writers[0] < bound:
                writers[:] = [j for j in writers if j >= bound]
            writers.append(i)
        for lo, hi in reads_m:
            mem_readers.append((lo, hi, i))
        for lo, hi in writes_m:
            mem_writers.append((lo, hi, i))
        out.append(tuple(sorted(conf)))
    return tuple(out)
