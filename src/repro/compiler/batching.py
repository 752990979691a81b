"""Batched inference: repeat a compiled program for N pipelined images.

PIM inference accelerators amortize their pipeline fill over a stream of
inputs.  :func:`repeat_chip_program` unrolls a compiled single-image chip
program ``batch`` times: per-core streams are concatenated (one HALT at
the very end), transfer sequence numbers continue across repetitions,
flow message counts scale, and scalar branch targets are rebased into
each image's copy (absolute targets would otherwise keep pointing into
image 0's instructions, silently corrupting any branchy program) — so
consecutive images overlap in the hardware exactly as consecutive tiles
of one image do, and throughput approaches steady-state pipeline rate
rather than latency x N.
"""

from __future__ import annotations

import dataclasses

from ..isa import (
    ChipProgram,
    Program,
    ProgramError,
    ScalarInst,
    TransferInst,
)

__all__ = ["repeat_chip_program"]


def _is_halt(inst) -> bool:
    return isinstance(inst, ScalarInst) and inst.op == "HALT"


def repeat_chip_program(chip: ChipProgram, batch: int) -> ChipProgram:
    """Unroll a sealed single-image program for ``batch`` images."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if batch == 1:
        return chip

    out = ChipProgram(network=f"{chip.network}x{batch}")
    messages_per_image = {fid: info.n_messages
                          for fid, info in chip.flows.items()}

    for core_id, program in chip.programs.items():
        insts = program.instructions
        for pos, inst in enumerate(insts):
            if _is_halt(inst) and pos != len(insts) - 1:
                # Sequential semantics stop the core at a mid-stream HALT;
                # stripping it would silently run code each image should
                # have skipped.  verify_program rejects such programs too.
                raise ProgramError(
                    f"core {core_id}: HALT at index {pos} is not the last "
                    f"instruction; early-exit programs cannot be batched"
                )
        body = [inst for inst in insts if not _is_halt(inst)]
        # Branch targets are absolute indices into the *original* stream;
        # each unrolled copy needs them (a) shifted down past the stripped
        # trailing HALT and (b) rebased by the copy's offset.
        # ``rebased[i]`` maps original index ``i`` to its post-strip
        # position: a target that pointed at the trailing HALT lands just
        # past the copy — i.e. a branch-to-end falls through into the
        # next image's copy (or the final HALT on the last image), which
        # is exactly the sequential-execution semantics.
        rebased = []
        position = 0
        for inst in insts:
            rebased.append(position)
            if not _is_halt(inst):
                position += 1
        body_len = len(body)
        repeated = Program(core=core_id, groups=program.groups,
                           local_memory_used=program.local_memory_used)
        # Instructions are values: every image shares the source objects,
        # and only transfers (shifted ``seq``) and branches (rebased
        # ``target``) get new ones.  The body precedes the only HALT, so a
        # body position is also the source stream position.
        for image in range(batch):
            base = image * body_len
            for pos, inst in enumerate(body):
                if isinstance(inst, TransferInst) and inst.op in ("SEND",
                                                                  "RECV"):
                    if inst.flow not in messages_per_image:
                        raise ProgramError(
                            f"core {core_id}: {inst.op} at index "
                            f"{pos} references flow {inst.flow}, "
                            f"which is not declared in chip.flows "
                            f"(declared: {sorted(chip.flows) or 'none'}); "
                            f"cannot batch a program with dangling flows"
                        )
                    inst = dataclasses.replace(
                        inst,
                        seq=inst.seq + image * messages_per_image[inst.flow])
                elif isinstance(inst, ScalarInst) and inst.is_control:
                    if not 0 <= inst.target <= len(insts):
                        raise ProgramError(
                            f"core {core_id}: branch at index {pos} "
                            f"targets {inst.target}, outside the "
                            f"{len(insts)}-instruction stream"
                        )
                    target = (base + body_len if inst.target == len(insts)
                              else base + rebased[inst.target])
                    inst = dataclasses.replace(inst, target=target)
                repeated.append(inst)
        out.programs[core_id] = repeated.seal()

    out.flows = {
        fid: dataclasses.replace(info, n_messages=info.n_messages * batch)
        for fid, info in chip.flows.items()
    }
    out.layer_cores = dict(chip.layer_cores)
    out.meta = {**chip.meta, "batch": batch}
    return out
