"""Static verification of chip programs.

Run after compilation and before simulation: catches malformed programs
(dangling flows, unknown groups, out-of-range addresses) with source-level
messages instead of mid-simulation deadlocks.
"""

from __future__ import annotations

from ..config import ArchConfig
from .instructions import VECTOR_OPS, MvmInst, ScalarInst, TransferInst, VectorInst
from .program import ChipProgram, ProgramError

__all__ = ["verify_program", "VerificationError"]

N_REGISTERS = 32


class VerificationError(ProgramError):
    """One or more static checks failed; message lists all of them."""


def verify_program(chip: ChipProgram, config: ArchConfig) -> ChipProgram:
    """Run all static checks; returns the program on success."""
    errors: list[str] = []
    n_cores = config.chip.n_cores
    mem_limit = config.core.local_memory_bytes

    for core_id, program in sorted(chip.programs.items()):
        prefix = f"core {core_id}"
        if not 0 <= core_id < n_cores:
            errors.append(f"{prefix}: id outside the {n_cores}-core chip")
            continue
        if not program.sealed:
            errors.append(f"{prefix}: program not sealed")
            continue
        _check_stream(errors, prefix, program, chip, mem_limit, n_cores)

    _check_flows(errors, chip)

    if errors:
        raise VerificationError(
            f"program for {chip.network!r} failed verification "
            f"({len(errors)} error(s)):\n  - " + "\n  - ".join(errors[:40])
            + ("\n  - …" if len(errors) > 40 else "")
        )
    return chip


def _check_stream(errors: list[str], prefix: str, program, chip: ChipProgram,
                  mem_limit: int, n_cores: int) -> None:
    """Check one core's stream in one pass over plain instruction fields.

    Every check reads the fields directly and builds its message only when
    it fails, so an instruction that passes costs a few compares.  The
    stream-level HALT message comes first, then each instruction's messages
    in stream order.
    """
    instructions = program.instructions
    n = len(instructions)
    groups = program.groups
    group_ids = groups.groups if groups is not None else None
    flows = chip.flows
    first_halt = -1
    found: list[str] = []

    def fail(i: int, msg: str) -> None:
        found.append(f"{prefix} inst {i}: {msg}")

    def bad_range(i: int, start: int, end: int) -> None:
        if start < 0 or end > mem_limit:
            fail(i, f"local-memory range [{start},{end}) outside 0..{mem_limit}")
        if start >= end:
            fail(i, f"empty/negative memory range [{start},{end})")

    for i, inst in enumerate(instructions):
        if isinstance(inst, MvmInst):
            src, dst = inst.src, inst.dst
            end = src + inst.src_bytes
            if not 0 <= src < end <= mem_limit:
                bad_range(i, src, end)
            end = dst + inst.dst_bytes
            if not 0 <= dst < end <= mem_limit:
                bad_range(i, dst, end)
            if group_ids is None:
                fail(i, "MVM but core has no group table")
            elif inst.group not in group_ids:
                fail(i, f"undefined group {inst.group}")
            if inst.count < 1:
                fail(i, f"MVM count must be >= 1, got {inst.count}")
        elif isinstance(inst, VectorInst):
            two = VECTOR_OPS[inst.op] == 2
            src, src_bytes, src2_bytes = inst.src1, inst.src_bytes, inst.src2_bytes
            end = src + src_bytes
            if not 0 <= src < end <= mem_limit:
                bad_range(i, src, end)
            if two:
                src = inst.src2
                end = src + (src2_bytes or src_bytes)
                if not 0 <= src < end <= mem_limit:
                    bad_range(i, src, end)
            dst = inst.dst
            end = dst + inst.dst_bytes
            if not 0 <= dst < end <= mem_limit:
                bad_range(i, dst, end)
            if inst.length < 1:
                fail(i, "vector length must be >= 1")
            if two:
                if src2_bytes < 0:
                    fail(i, "negative src2_bytes")
            elif src2_bytes:
                fail(i, f"src2_bytes set on one-operand {inst.op}")
        elif isinstance(inst, TransferInst):
            addr, op = inst.addr, inst.op
            end = addr + inst.bytes
            if not 0 <= addr < end <= mem_limit:
                bad_range(i, addr, end)
            sync = op == "SEND" or op == "RECV"
            if sync and not 0 <= inst.peer < n_cores:
                fail(i, f"peer {inst.peer} outside the chip")
            if inst.bytes < 1:
                fail(i, f"transfer of {inst.bytes} bytes")
            if sync and inst.flow not in flows:
                fail(i, f"undeclared flow {inst.flow}")
        elif isinstance(inst, ScalarInst):
            if inst.op == "HALT":
                if first_halt < 0:
                    first_halt = i
                continue
            regs = (*inst.reads_regs(), *inst.writes_regs())
            if any(not 0 <= r < N_REGISTERS for r in regs):
                fail(i, f"register out of range in {inst!r}")
            if inst.is_control and not 0 <= inst.target < n:
                fail(i, f"branch target {inst.target} outside stream")

    if first_halt < 0:
        errors.append(f"{prefix}: no HALT")
    elif first_halt != n - 1:
        errors.append(f"{prefix}: HALT at {first_halt} is not the last instruction")
    errors.extend(found)


def _check_flows(errors: list[str], chip: ChipProgram) -> None:
    sends = chip.sends_by_flow()
    recvs = chip.recvs_by_flow()
    for flow_id, info in sorted(chip.flows.items()):
        flow_sends = sends.get(flow_id, [])
        flow_recvs = recvs.get(flow_id, [])
        if len(flow_sends) != len(flow_recvs):
            errors.append(
                f"flow {flow_id} ({info.layer}): {len(flow_sends)} sends vs "
                f"{len(flow_recvs)} recvs"
            )
            continue
        if len(flow_sends) != info.n_messages:
            errors.append(
                f"flow {flow_id} ({info.layer}): declared {info.n_messages} "
                f"messages, found {len(flow_sends)}"
            )
        send_seqs = sorted(s.seq for s in flow_sends)
        recv_seqs = sorted(r.seq for r in flow_recvs)
        if send_seqs != list(range(len(flow_sends))):
            errors.append(f"flow {flow_id}: send seqs not dense: {send_seqs[:8]}…")
        if recv_seqs != list(range(len(flow_recvs))):
            errors.append(f"flow {flow_id}: recv seqs not dense: {recv_seqs[:8]}…")
        for send in flow_sends:
            if send.peer != info.dst_core:
                errors.append(
                    f"flow {flow_id}: SEND peer {send.peer} != declared dst "
                    f"{info.dst_core}"
                )
                break
        for recv in flow_recvs:
            if recv.peer != info.src_core:
                errors.append(
                    f"flow {flow_id}: RECV peer {recv.peer} != declared src "
                    f"{info.src_core}"
                )
                break
    undeclared = (set(sends) | set(recvs)) - set(chip.flows)
    for flow_id in sorted(undeclared):
        errors.append(f"flow {flow_id}: used by transfers but never declared")
