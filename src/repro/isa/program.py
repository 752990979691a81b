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
from .instructions import (
    Instruction,
    MvmInst,
    ScalarInst,
    TransferInst,
    VectorInst,
)

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
        """Terminate with HALT (if absent) and freeze: ``append`` then
        refuses, so the stream positions the simulator's cost and blocker
        tables are addressed by can no longer move."""
        if not self.instructions or not (
            isinstance(self.instructions[-1], ScalarInst)
            and self.instructions[-1].op == "HALT"
        ):
            self.instructions.append(ScalarInst(op="HALT"))
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

    def units_used(self) -> frozenset[str]:
        """Execution units this program's instructions occupy.

        Control instructions (branches, ``HALT``) resolve at dispatch and
        occupy no unit, so a compiled program — straight-line, ended by
        ``HALT`` — leaves the scalar unit out unless it has ALU ops.
        Cached once the program is sealed, like :meth:`static_blockers`.
        """
        used = getattr(self, "_units_used", None)
        if used is None:
            used = frozenset(
                inst.unit for inst in self.instructions
                if not (isinstance(inst, ScalarInst) and inst.is_control))
            if self._sealed:
                self._units_used = used
        return used

    def static_blockers(self, window: int) -> tuple | None:
        """Per-instruction static hazard predecessors under a ``window``-entry
        ROB, or ``None`` when the program branches.

        For a straight-line program (no branches — compiled programs are
        straight-line; a trailing ``HALT`` is fine) the ROB's in-flight set
        when instruction ``i`` dispatches is always a subset of the
        ``window - 1`` instructions before it in program order, so which
        older instructions can ever block ``i`` is a *static* property:
        ``result[i]`` is the tuple of *relative lags* ``d`` (``0 < d <
        window``, descending — oldest blocker first) such that instruction
        ``i - d``'s dependence footprint conflicts with ``i``'s; ``()``
        for a ``HALT`` or an instruction nothing blocks.  Equal patterns
        are one shared tuple (a compiled program has a few dozen), so the
        table costs one pointer per instruction.  The simulator's hazard
        checks then reduce to done-flag tests on those entries
        (:class:`~repro.arch.rob.ReorderBuffer` and the fast walker index
        their rings with ``i - d``), with no per-issue window scan.  See
        DESIGN.md "Static blocker tables".

        Cached per ``window`` once the program is sealed, so repeated
        simulations of one compiled program — ROB sweeps, batched runs,
        benchmark repetitions — pay the dependence analysis once; an
        unsealed program can still grow, so its table is computed and not
        kept.
        """
        cache = getattr(self, "_blocker_cache", None)
        if cache is None:
            cache = self._blocker_cache = {}
        try:
            return cache[window]
        except KeyError:
            pass
        table = _build_static_blockers(self.instructions, window)
        if self._sealed:
            cache[window] = table
        return table

    def listing(self, limit: int | None = None) -> str:
        """Readable assembly-style dump (first ``limit`` instructions)."""
        if limit is not None and limit < 0:
            raise ValueError(f"listing limit must be >= 0, got {limit}")
        lines = [f"core {self.core}: {len(self.instructions)} instructions"]
        shown = self.instructions if limit is None else self.instructions[:limit]
        for index, inst in enumerate(shown):
            tag = f"  {index:>6}  {inst!r}"
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


#: a memory range no range overlaps (ranges are half-open ``(lo, hi)``).
_NO_RANGE = (float("inf"), float("-inf"))


def _build_static_blockers(instructions: list[Instruction],
                           window: int) -> tuple | None:
    """One-sweep static dependence analysis for ``Program.static_blockers``.

    Walks the program in order reading each instruction's memory ranges,
    crossbar group and registers straight from its fields (no
    ``Instruction._footprint`` cache is built), and accumulates its
    conflicts with the ``window - 1`` instructions before it as an int
    bit mask over lags: bit ``d`` set <=> instruction ``i - d`` blocks
    ``i``.  Memory ranges are compared against a lag-ordered window of
    the recent instructions' ranges; groups and registers keep, per key,
    the lag mask of their recent users and when it was taken, and age it
    by shifting.  Each distinct mask maps to one shared tuple of
    descending lags, so nothing is retained per instruction but a
    pointer.  The conflict rules are :meth:`Instruction.conflicts_with`'s
    (``tests/test_rob_scoreboard.py`` holds the pairwise oracle).
    Returns ``None`` on the first branch (allocation order is no longer
    program order) — the ROB's window scan handles those programs.
    """
    keep = (1 << window) - 2  # lag bits 1 .. window - 1
    bits = tuple(1 << lag for lag in range(1, window))
    # Newest first, one entry per instruction: write, read, second read.
    recent: deque = deque(maxlen=window - 1)
    group_users: dict[int, tuple[int, int]] = {}  # key -> (index, mask then)
    reg_readers: dict[int, tuple[int, int]] = {}
    reg_writers: dict[int, tuple[int, int]] = {}
    lags_of: dict[int, tuple[int, ...]] = {0: ()}
    out: list[tuple[int, ...]] = []

    def users(table: dict, key: int, i: int, add: bool = False) -> int:
        """Lag mask, as seen from ``i``, of the in-window instructions
        recorded under ``key``; ``add`` records ``i`` itself."""
        index, mask = table.get(key, (i, 0))
        mask = (mask << (i - index)) & keep if i - index < window else 0
        if add:
            table[key] = (i, mask | 1)
        return mask

    for i, inst in enumerate(instructions):
        cls = type(inst)
        conf = 0
        wlo, whi = alo, ahi = blo, bhi = _NO_RANGE  # write, read, read
        if cls is MvmInst:
            alo = inst.src
            ahi = alo + inst.src_bytes
            wlo = inst.dst
            whi = wlo + inst.dst_bytes
            conf = users(group_users, inst.group, i, add=True)
        elif cls is VectorInst:
            alo = inst.src1
            ahi = alo + inst.src_bytes
            wlo = inst.dst
            whi = wlo + inst.dst_bytes
            if inst.n_sources == 2:
                blo = inst.src2
                bhi = blo + (inst.src2_bytes or inst.src_bytes)
        elif cls is TransferInst:
            if inst.op in ("SEND", "STORE"):
                alo = inst.addr
                ahi = alo + inst.bytes
            else:
                wlo = inst.addr
                whi = wlo + inst.bytes
        elif inst.is_control:
            if inst.op != "HALT":
                return None  # branchy: fall back to the ROB's window scan
            # HALT is handled at dispatch, never allocated: no footprint.
        else:
            reads, writes = inst.reads_regs(), inst.writes_regs()
            for r in reads:
                conf |= users(reg_writers, r, i)
            for r in writes:
                conf |= users(reg_writers, r, i) | users(reg_readers, r, i)
            for r in reads:
                users(reg_readers, r, i, add=True)
            for r in writes:
                users(reg_writers, r, i, add=True)
        for bit, (olo, ohi, plo, phi, qlo, qhi) in zip(bits, recent):
            if (alo < ohi and olo < ahi) or (blo < ohi and olo < bhi) \
                    or (wlo < ohi and olo < whi) \
                    or (wlo < phi and plo < whi) or (wlo < qhi and qlo < whi):
                conf |= bit
        recent.appendleft((wlo, whi, alo, ahi, blo, bhi))
        lags = lags_of.get(conf)
        if lags is None:
            lags = lags_of[conf] = tuple(
                lag for lag in range(conf.bit_length() - 1, 0, -1)
                if conf >> lag & 1)
        out.append(lags)
    return tuple(out)
