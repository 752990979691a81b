"""Instruction set: matrix / vector / transfer / scalar classes.

The ISA follows the abstract machine of the paper (and its companion ISA
report, arXiv:2308.06449): a chip of cores around a global memory, each
core owning crossbars, a local memory, a register file, and four execution
units — one per instruction class.

Every instruction exposes its *dependence footprint* — register and
local-memory ranges read/written plus structural resources (crossbar
groups) — which the dispatch stage uses for hazard detection, and the ROB
for in-order retirement.  Memory ranges are half-open byte intervals
``(start, end)`` in core-local address space.

Instruction classes:

* ``matrix`` — :class:`MvmInst`: drive one crossbar *group* through a
  matrix-vector multiplication over ``count`` consecutive input vectors.
* ``vector`` — :class:`VectorInst`: SIMD element-wise / reduction ops on
  local memory (``VADD``, ``VRELU``, ``VMAXPOOL`` …).
* ``transfer`` — :class:`TransferInst`: synchronized ``SEND``/``RECV``
  between cores, and ``LOAD``/``STORE`` against global memory.
* ``scalar`` — :class:`ScalarInst`: register arithmetic and control flow
  (``LI``, ``SADD``, ``SBNE`` …, ``HALT``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

__all__ = [
    "Instruction",
    "MvmInst",
    "VectorInst",
    "TransferInst",
    "ScalarInst",
    "VECTOR_OPS",
    "TRANSFER_OPS",
    "SCALAR_OPS",
    "MemRange",
    "ranges_overlap",
]

MemRange = tuple[int, int]


def ranges_overlap(a: MemRange, b: MemRange) -> bool:
    """Whether two half-open byte ranges intersect."""
    return a[0] < b[1] and b[0] < a[1]


@dataclass
class Instruction:
    """Base class; concrete classes define their dependence footprint.

    An instruction is a value: nothing assigns to its fields after
    construction (to change one, build a new instance with
    :func:`dataclasses.replace`).  Codegen emits one object per distinct
    instruction and shares it across every stream position and core
    that holds that value, so identity says nothing about position: the
    position in :attr:`Program.instructions <repro.isa.Program>` is the
    instruction's address, and the simulator carries it beside the
    object.  The classes stay plain rather than ``frozen=True`` because
    a frozen dataclass constructs about 3x slower.
    """

    #: class-level unit name: matrix / vector / transfer / scalar.
    unit: ClassVar[str] = "?"

    #: network layer this instruction belongs to (analysis/reporting tag).
    layer: str = field(default="", kw_only=True)

    # -- dependence footprint (overridden per class) -------------------------

    def reads_mem(self) -> tuple[MemRange, ...]:
        return ()

    def writes_mem(self) -> tuple[MemRange, ...]:
        return ()

    def reads_regs(self) -> tuple[int, ...]:
        return ()

    def writes_regs(self) -> tuple[int, ...]:
        return ()

    def groups_used(self) -> tuple[int, ...]:
        """Crossbar groups this instruction occupies (structural hazard)."""
        return ()

    @property
    def is_control(self) -> bool:
        return False

    def _footprint(self) -> tuple:
        """Compute and cache the dependence footprint.

        Instructions are values and each one is conflict-checked against
        many in-flight entries over a simulation, so the sets/ranges are
        materialized once per instruction object instead of on every
        :meth:`conflicts_with` call (the cache derives from the fields
        alone, so positions sharing the object share it safely).  Only
        :meth:`conflicts_with`
        — the ROB's window scan for branchy or unsealed programs — builds
        this cache; the static blocker tables that every compiled program
        runs from read the instruction fields directly, so compiled
        instructions never carry one.
        """
        fp = (frozenset(self.groups_used()),
              frozenset(self.reads_regs()),
              frozenset(self.writes_regs()),
              self.reads_mem(),
              self.writes_mem())
        self._fp = fp
        return fp

    def conflicts_with(self, older: "Instruction") -> bool:
        """True when this instruction must wait for ``older`` to finish.

        Covers RAW / WAR / WAW through registers and local memory, and
        structural conflicts on crossbar groups — the "structure hazard"
        the paper uses to explain the ROB-size plateau (Fig. 4).
        """
        try:
            mine = self._fp
        except AttributeError:
            mine = self._footprint()
        try:
            theirs = older._fp
        except AttributeError:
            theirs = older._footprint()
        my_groups, my_r, my_w, my_rm, my_wm = mine
        old_groups, old_r, old_w, old_rm, old_wm = theirs
        if my_groups and not my_groups.isdisjoint(old_groups):
            return True
        if old_w and not (old_w.isdisjoint(my_r) and old_w.isdisjoint(my_w)):
            return True
        if my_w and not my_w.isdisjoint(old_r):
            return True
        for lo, hi in my_rm:
            for olo, ohi in old_wm:
                if lo < ohi and olo < hi:
                    return True
        for lo, hi in my_wm:
            for olo, ohi in old_wm:
                if lo < ohi and olo < hi:
                    return True
            for olo, ohi in old_rm:
                if lo < ohi and olo < hi:
                    return True
        return False


@dataclass
class MvmInst(Instruction):
    """Matrix instruction: one group x ``count`` input vectors.

    The group's crossbars fire in parallel (the ISA's group mechanism);
    ``count`` input vectors are streamed back-to-back through the same
    group, so latency scales with ``count`` but the instruction occupies
    its group exclusively throughout.
    """

    unit: ClassVar[str] = "matrix"

    group: int = 0
    src: int = 0
    src_bytes: int = 0
    dst: int = 0
    dst_bytes: int = 0
    count: int = 1

    def reads_mem(self) -> tuple[MemRange, ...]:
        return ((self.src, self.src + self.src_bytes),)

    def writes_mem(self) -> tuple[MemRange, ...]:
        return ((self.dst, self.dst + self.dst_bytes),)

    def groups_used(self) -> tuple[int, ...]:
        return (self.group,)

    def __repr__(self) -> str:
        return (f"MVM g{self.group} x{self.count} "
                f"[{self.src}+{self.src_bytes}]->[{self.dst}+{self.dst_bytes}]")


#: vector opcodes -> number of source operands.
VECTOR_OPS: dict[str, int] = {
    "VADD": 2, "VSUB": 2, "VMUL": 2, "VMAX": 2,
    "VRELU": 1, "VMOV": 1, "VSCALE": 1,
    "VMAXPOOL": 1, "VAVGPOOL": 1,
    "VSOFTMAX": 1, "VLRN": 1,
    # attention / transformer extension: dynamic (activation x activation)
    # matrix product — `length` counts multiply-accumulates, not elements —
    # plus the transcendental-heavy normalizations and the token/channel
    # axis swap.
    "VMATMUL": 2, "VLAYERNORM": 1, "VGELU": 1, "VTRANS": 1,
}

#: vector opcodes whose per-element work is transcendental-heavy (exp /
#: rsqrt / erf pipelines); the vector unit applies
#: ``CoreConfig.vector_special_cycles_per_element`` and charges
#: ``EnergyConfig.vector_special_pj_per_element`` for these.
VECTOR_SPECIAL_OPS = frozenset({"VSOFTMAX", "VLAYERNORM", "VGELU"})


@dataclass
class VectorInst(Instruction):
    """Vector instruction: SIMD op over ``length`` elements in local memory.

    ``src2`` is only meaningful for two-operand ops; pooling ops read a
    window whose footprint is ``src_bytes`` (>= length elements) and write
    ``dst_bytes``.  ``src2_bytes`` sizes the second operand's footprint
    when it differs from the first (``VMATMUL`` reads a tile of A but all
    of B); 0 means "same as ``src_bytes``".  For ``VMATMUL``, ``length``
    is the multiply-accumulate count (the unit retires ``vector_lanes``
    MACs per cycle), not an element count.
    """

    unit: ClassVar[str] = "vector"

    op: str = "VMOV"
    src1: int = 0
    src2: int = 0
    dst: int = 0
    length: int = 0
    src_bytes: int = 0
    dst_bytes: int = 0
    src2_bytes: int = 0

    def __post_init__(self) -> None:
        if self.op not in VECTOR_OPS:
            raise ValueError(f"unknown vector op {self.op!r}; known: {sorted(VECTOR_OPS)}")

    @property
    def n_sources(self) -> int:
        return VECTOR_OPS[self.op]

    def reads_mem(self) -> tuple[MemRange, ...]:
        first = (self.src1, self.src1 + self.src_bytes)
        if self.n_sources == 2:
            second = self.src2_bytes or self.src_bytes
            return (first, (self.src2, self.src2 + second))
        return (first,)

    def writes_mem(self) -> tuple[MemRange, ...]:
        return ((self.dst, self.dst + self.dst_bytes),)

    def __repr__(self) -> str:
        srcs = f"[{self.src1}]" + (f",[{self.src2}]" if self.n_sources == 2 else "")
        return f"{self.op} {srcs}->[{self.dst}] len={self.length}"


TRANSFER_OPS = ("SEND", "RECV", "LOAD", "STORE")


@dataclass
class TransferInst(Instruction):
    """Transfer instruction: synchronized core-to-core or global-memory move.

    ``SEND``/``RECV`` pairs are matched by ``(flow, seq)``: the compiler
    assigns each producer->consumer edge a flow id and numbers the messages
    so the rendezvous is unambiguous.  ``LOAD``/``STORE`` address global
    memory (``peer`` is ignored; ``flow`` carries the global address).
    """

    unit: ClassVar[str] = "transfer"

    op: str = "SEND"
    peer: int = 0
    addr: int = 0
    bytes: int = 0
    flow: int = 0
    seq: int = 0

    def __post_init__(self) -> None:
        if self.op not in TRANSFER_OPS:
            raise ValueError(f"unknown transfer op {self.op!r}; known: {TRANSFER_OPS}")

    def reads_mem(self) -> tuple[MemRange, ...]:
        if self.op in ("SEND", "STORE"):
            return ((self.addr, self.addr + self.bytes),)
        return ()

    def writes_mem(self) -> tuple[MemRange, ...]:
        if self.op in ("RECV", "LOAD"):
            return ((self.addr, self.addr + self.bytes),)
        return ()

    def __repr__(self) -> str:
        return (f"{self.op} peer={self.peer} [{self.addr}+{self.bytes}] "
                f"flow={self.flow}#{self.seq}")


SCALAR_OPS = ("LI", "SADD", "SSUB", "SMUL", "SAND", "SOR",
              "SBEQ", "SBNE", "SJMP", "NOP", "HALT")

_BRANCH_OPS = ("SBEQ", "SBNE", "SJMP")


@dataclass
class ScalarInst(Instruction):
    """Scalar instruction: register ALU ops and control flow.

    ``target`` of a branch is an absolute instruction index in the core's
    stream (labels are resolved by the assembler).  ``HALT`` terminates the
    core's program.
    """

    unit: ClassVar[str] = "scalar"

    op: str = "NOP"
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: int = 0

    def __post_init__(self) -> None:
        if self.op not in SCALAR_OPS:
            raise ValueError(f"unknown scalar op {self.op!r}; known: {SCALAR_OPS}")

    @property
    def is_control(self) -> bool:
        return self.op in _BRANCH_OPS or self.op == "HALT"

    def reads_regs(self) -> tuple[int, ...]:
        if self.op == "LI":
            return ()
        if self.op in ("SADD", "SSUB", "SMUL", "SAND", "SOR"):
            return (self.rs1, self.rs2)
        if self.op in ("SBEQ", "SBNE"):
            return (self.rs1, self.rs2)
        return ()

    def writes_regs(self) -> tuple[int, ...]:
        if self.op in ("LI", "SADD", "SSUB", "SMUL", "SAND", "SOR"):
            return (self.rd,)
        return ()

    def __repr__(self) -> str:
        if self.op == "LI":
            return f"LI r{self.rd}, {self.imm}"
        if self.op in ("SADD", "SSUB", "SMUL", "SAND", "SOR"):
            return f"{self.op} r{self.rd}, r{self.rs1}, r{self.rs2}"
        if self.op in ("SBEQ", "SBNE"):
            return f"{self.op} r{self.rs1}, r{self.rs2}, @{self.target}"
        if self.op == "SJMP":
            return f"SJMP @{self.target}"
        return self.op
