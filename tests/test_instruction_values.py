"""An instruction is a value: sharing one object across positions is safe.

Codegen emits one object per distinct instruction within a compile and
shares it across stream positions and cores; the simulator addresses its
cost and blocker tables by stream position, never by the object.  These
tests pin that the sharing happens, that it changes no simulated number,
and that batching shares the unchanged instructions of every image
without touching its source program.
"""

import copy
import dataclasses

import pytest

from repro.arch import run_program
from repro.compiler import compile_network, repeat_chip_program
from repro.config import small_chip, tiny_chip, with_param
from repro.isa import (
    ChipProgram,
    GroupTable,
    MvmInst,
    Program,
    ScalarInst,
    TransferInst,
    VectorInst,
)
from repro.models import build_model


def _objects(chip: ChipProgram) -> tuple[int, int]:
    """(stream positions, distinct instruction objects) over the chip."""
    insts = [inst for program in chip.programs.values()
             for inst in program.instructions]
    return len(insts), len({id(inst) for inst in insts})


def test_codegen_shares_equal_instructions():
    config = with_param(small_chip(), "compiler.mapping", "performance_first")
    chip = compile_network(build_model("vgg8"), config).program
    positions, objects = _objects(chip)
    assert positions == 9872
    assert objects <= 3000


def _hand_program(shared: bool) -> ChipProgram:
    """One straight-line core whose MVM, VADD, LI, LOAD and STORE each sit
    at several positions: one object per value when ``shared``, a
    distinct copy per position otherwise."""
    groups = GroupTable(core=0)
    groups.define("fc", copy=0, row_block=0, n_crossbars=1, rows=8, cols=8)
    mvm = MvmInst(group=0, src=0, src_bytes=64, dst=1024, dst_bytes=256,
                  count=2, layer="fc")
    vadd = VectorInst(op="VADD", src1=1024, src2=2048, dst=2048, length=64,
                      src_bytes=256, dst_bytes=256, layer="fc")
    li = ScalarInst(op="LI", rd=1, imm=7, layer="ctl")
    load = TransferInst(op="LOAD", addr=0, bytes=64, layer="in")
    store = TransferInst(op="STORE", addr=2048, bytes=256, layer="out")
    relu = VectorInst(op="VRELU", src1=2048, dst=3072, length=64,
                      src_bytes=256, dst_bytes=256, layer="fc")
    stream = [load, mvm, vadd, li, mvm, vadd, load, mvm, vadd, relu, li,
              store, load, mvm, vadd, store]
    if not shared:
        stream = [copy.copy(inst) for inst in stream]
    program = Program(core=0, groups=groups)
    program.extend(stream)
    return ChipProgram(network="hand", programs={0: program.seal()})


def _outcome(chip: ChipProgram, config) -> tuple:
    raw = run_program(chip, config)
    return (raw.cycles, raw.energy_pj, raw.per_core, raw.layer_busy,
            raw.vector_layer_cycles, raw.trace)


@pytest.mark.parametrize("rob", [1, 8])
@pytest.mark.parametrize("fidelity", ["cycle", "fast"])
@pytest.mark.parametrize("trace", [False, True])
def test_shared_objects_simulate_like_distinct_copies(fidelity, rob, trace):
    shared, distinct = _hand_program(True), _hand_program(False)
    assert _objects(shared) == (17, 7)
    assert _objects(distinct) == (17, 17)
    config = with_param(tiny_chip(), "core.rob_size", rob).with_fidelity(
        fidelity)
    config = with_param(config, "sim.trace", trace)
    ours = _outcome(shared, config)
    assert ours == _outcome(distinct, config)
    assert ours[0] > 0
    assert (ours[-1] is not None) == trace


def _fields(chip: ChipProgram) -> dict:
    return {core: [(type(inst), dataclasses.astuple(inst))
                   for inst in program.instructions]
            for core, program in chip.programs.items()}


def _is_sync(inst) -> bool:
    return isinstance(inst, TransferInst) and inst.op in ("SEND", "RECV")


def _is_control(inst) -> bool:
    return isinstance(inst, ScalarInst) and inst.is_control


def _check_repeat(chip: ChipProgram, batch: int) -> None:
    before = _fields(chip)
    lists = {core: list(p.instructions) for core, p in chip.programs.items()}
    repeated = repeat_chip_program(chip, batch)
    for core, program in repeated.programs.items():
        source = {id(inst) for inst in chip.programs[core].instructions}
        for inst in program.instructions:
            if id(inst) not in source:
                assert _is_sync(inst) or _is_control(inst), inst
            else:
                assert not (_is_sync(inst) or _is_control(inst)), inst
    assert _fields(chip) == before
    assert {core: p.instructions
            for core, p in chip.programs.items()} == lists


def test_batching_copies_only_transfers_and_branches():
    chip = compile_network(build_model("lenet5"), small_chip()).program
    assert any(_is_sync(inst) for program in chip.programs.values()
               for inst in program.instructions)
    _check_repeat(chip, 4)


def test_batching_rebases_branches_into_new_objects():
    program = Program(core=0)
    program.extend([ScalarInst(op="LI", rd=1, imm=3),
                    ScalarInst(op="SJMP", target=2),
                    ScalarInst(op="SADD", rd=2, rs1=1, rs2=1)])
    chip = ChipProgram(network="branchy", programs={0: program.seal()})
    _check_repeat(chip, 4)
    targets = [inst.target for inst in
               repeat_chip_program(chip, 4).programs[0].instructions
               if inst.op == "SJMP"]
    assert targets == [2, 5, 8, 11]
