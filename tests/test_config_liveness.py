"""Every leaf of ``ArchConfig`` moves the model (the liveness gate).

PIMSIM-NN evaluates a design by editing its architecture configuration
(Fig. 1), so a field no model reads returns the same numbers across a
whole sweep and nothing says so.  :data:`WITNESSES` maps every leaf of
the configuration tree to a witness: a workload (a zoo network, or one
of the two hand-assembled programs below), a base preset, a fidelity
and a mutated value.  The mutation must change what the run shows —
cycles, energy per category, instruction count, the completion trace,
the fast tier's analytic runs — or make compilation or the run fail.
Only the leaves in :data:`ALLOWLIST` are exempt, each with its reason.

A field added to the schema without an entry here fails
``test_every_leaf_has_a_witness``.  DESIGN.md "Every configuration
field has a witness" records the measured numbers behind each entry.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Any, NamedTuple

import pytest

from repro.arch import run_program
from repro.compiler import CompileError
from repro.config import ArchConfig, get_preset, validate
from repro.engine import Engine, JobSpec
from repro.isa import (
    ChipProgram,
    FlowInfo,
    GroupTable,
    Program,
    ScalarInst,
    TransferInst,
    VectorInst,
)
from repro.sim import DeadlockError


class Witness(NamedTuple):
    workload: str
    preset: str
    fidelity: str
    value: Any
    #: leaf -> value set on the base before mutating (the context in
    #: which the leaf matters, e.g. bit slicing for ``cell_bits``).
    base: tuple[tuple[str, Any], ...] = ()


_SLICED = (("crossbar.bit_sliced", True),)

WITNESSES: dict[str, Witness] = {
    "chip.mesh_rows": Witness("lenet5", "small", "cycle", 8),
    "chip.mesh_cols": Witness("lenet5", "small", "cycle", 8),
    "chip.global_memory_xy": Witness("lenet5", "small", "cycle", (1, 1)),
    "chip.global_memory_bytes_per_cycle": Witness("vit_tiny", "small",
                                                  "fast", 64),
    "chip.global_memory_latency_cycles": Witness("lenet5", "small",
                                                 "cycle", 200),
    "core.crossbars_per_core": Witness("lenet5", "small", "cycle", 16),
    "core.rob_size": Witness("lenet5", "small", "cycle", 16),
    "core.fetch_width": Witness("scalar", "tiny", "cycle", 2),
    "core.decode_cycles": Witness("lenet5", "small", "cycle", 2),
    "core.dispatch_cycles": Witness("lenet5", "small", "cycle", 2),
    "core.vector_lanes": Witness("vit_tiny", "small", "fast", 64),
    "core.vector_issue_cycles": Witness("lenet5", "small", "cycle", 2),
    "core.vector_special_cycles_per_element": Witness("vit_tiny", "small",
                                                      "fast", 8),
    "core.scalar_cycles": Witness("scalar", "tiny", "cycle", 2),
    "core.local_memory_bytes": Witness("lenet5", "small", "cycle", 4096),
    "core.local_memory_read_bytes_per_cycle": Witness("lenet5", "small",
                                                      "cycle", 128),
    "core.local_memory_write_bytes_per_cycle": Witness("lenet5", "small",
                                                       "cycle", 128),
    "core.shared_adc_domains": Witness("lenet5", "small", "cycle", 1),
    "crossbar.rows": Witness("lenet5", "small", "cycle", 256),
    "crossbar.cols": Witness("lenet5", "small", "cycle", 256),
    "crossbar.cell_bits": Witness("lenet5", "small", "cycle", 4, _SLICED),
    "crossbar.weight_bits": Witness("lenet5", "small", "cycle", 16, _SLICED),
    "crossbar.bit_sliced": Witness("lenet5", "small", "cycle", True),
    "crossbar.input_bits": Witness("lenet5", "small", "cycle", 16),
    "crossbar.dac_bits": Witness("lenet5", "small", "cycle", 2),
    "crossbar.adcs_per_crossbar": Witness("lenet5", "small", "cycle", 16),
    "crossbar.adc_cycles_per_sample": Witness("lenet5", "small", "cycle", 2),
    "crossbar.mvm_latency_cycles": Witness("lenet5", "small", "cycle", 1),
    "noc.hop_cycles": Witness("lenet5", "small", "cycle", 4),
    "noc.link_bytes_per_cycle": Witness("lenet5", "small", "cycle", 64),
    "noc.sync_window": Witness("flow", "tiny", "cycle", 2),
    "noc.model_contention": Witness("vit_tiny", "small", "fast", False),
    "energy.xbar_read_pj_per_cell": Witness("lenet5", "small", "cycle",
                                            0.0004),
    "energy.dac_pj_per_conversion": Witness("lenet5", "small", "cycle", 0.2),
    "energy.adc_pj_per_sample": Witness("lenet5", "small", "cycle", 4.0),
    "energy.vector_pj_per_element": Witness("lenet5", "small", "cycle", 1.0),
    "energy.vector_special_pj_per_element": Witness("vit_tiny", "small",
                                                    "fast", 5.0),
    "energy.vector_mac_pj": Witness("vit_tiny", "small", "fast", 1.6),
    "energy.scalar_pj_per_op": Witness("scalar", "tiny", "cycle", 0.2),
    "energy.local_mem_pj_per_byte": Witness("lenet5", "small", "cycle", 1.2),
    "energy.global_mem_pj_per_byte": Witness("lenet5", "small", "cycle",
                                             24.0),
    "energy.noc_pj_per_byte_hop": Witness("lenet5", "small", "cycle", 2.4),
    "energy.core_leakage_mw": Witness("lenet5", "small", "cycle", 4.0),
    "energy.chip_leakage_mw": Witness("lenet5", "small", "cycle", 60.0),
    "compiler.mapping": Witness("lenet5", "small", "cycle",
                                "utilization_first"),
    "compiler.allow_duplication": Witness("lenet5", "small", "cycle", False),
    "compiler.max_duplication": Witness("lenet5", "small", "cycle", 1),
    "compiler.tile_pixels": Witness("lenet5", "small", "cycle", 32),
    "compiler.operator_fusion": Witness("lenet5", "small", "cycle", False),
    "compiler.activation_bytes": Witness("lenet5", "small", "cycle", 2),
    "compiler.attention_shards": Witness("vit_tiny", "small", "fast", 2),
    "compiler.shard_placement": Witness(
        "vit_tiny", "small", "fast", "load_aware",
        (("compiler.attention_shards", 2),)),
    "sim.frequency_mhz": Witness("lenet5", "small", "cycle", 2000.0),
    "sim.max_cycles": Witness("lenet5", "small", "cycle", 1000),
    "sim.trace": Witness("lenet5", "small", "cycle", True),
    # The fast tier is exact on the zoo (tools/check_fidelity.py), so
    # the witness is how the run executed, not what it computed.
    "sim.fidelity": Witness("lenet5", "small", "cycle", "fast"),
}

#: leaves no model reads on purpose, with the reason.
ALLOWLIST = {
    "name": "a label for the configuration: reports echo it as "
            "config_name, and no timing, energy or compile step reads it",
}


def _leaves(node, prefix: str = ""):
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def _set(config: ArchConfig, leaf: str, value) -> ArchConfig:
    section, _, name = leaf.rpartition(".")
    if not section:
        return dataclasses.replace(config, **{name: value})
    return dataclasses.replace(config, **{section: dataclasses.replace(
        getattr(config, section), **{name: value})})


def _scalar_program() -> ChipProgram:
    """One core: scalar loads interleaved with short vector ops (the
    front end, not a unit, bounds them), then a serial scalar chain."""
    prog = Program(core=0, groups=GroupTable(core=0))
    for r in range(1, 5):
        prog.append(ScalarInst(op="LI", rd=r, imm=r))
        prog.append(VectorInst(op="VRELU", src1=256 * r, src_bytes=32,
                               dst=4096 + 256 * r, dst_bytes=32, length=32))
    for r in range(1, 4):
        prog.append(ScalarInst(op="SADD", rd=r + 1, rs1=r, rs2=r + 1))
    chip = ChipProgram(network="scalar")
    chip.programs[0] = prog.seal()
    return chip


def _flow_program(n: int = 8) -> ChipProgram:
    """A flow with no window of its own (the configuration's applies): a
    slow receiver, and a sender whose last op overwrites the send buffer,
    so it waits until every message has left."""
    chip = ChipProgram(network="flow")
    chip.flows[0] = FlowInfo(flow_id=0, src_core=0, dst_core=1, layer="f",
                             n_messages=n, bytes_per_message=64)
    send = Program(core=0, groups=GroupTable(core=0))
    recv = Program(core=1, groups=GroupTable(core=1))
    for seq in range(n):
        send.append(TransferInst(op="SEND", peer=1, addr=0, bytes=64,
                                 flow=0, seq=seq, layer="f"))
        recv.append(TransferInst(op="RECV", peer=0, addr=0, bytes=64,
                                 flow=0, seq=seq, layer="f"))
        recv.append(VectorInst(op="VRELU", src1=0, src_bytes=64, dst=8192,
                               dst_bytes=64, length=4096, layer="f"))
    send.append(VectorInst(op="VRELU", src1=8192, src_bytes=64, dst=0,
                           dst_bytes=64, length=16384, layer="f"))
    chip.programs[0] = send.seal()
    chip.programs[1] = recv.seal()
    return chip


_HAND_PROGRAMS = {"scalar": _scalar_program, "flow": _flow_program}

#: compile cache shared by every witness (the key ignores ``sim``).
_ENGINE = Engine()


def _observe(workload: str, config: ArchConfig):
    """Everything a mutation may move, as one comparable value."""
    try:
        if workload in _HAND_PROGRAMS:
            program = _HAND_PROGRAMS[workload]()
        else:
            program = _ENGINE.compile_for(JobSpec(workload, config))[0].program
    except CompileError as exc:
        return ("CompileError", str(exc))
    try:
        raw = run_program(program, config)
    except DeadlockError as exc:
        return ("DeadlockError", str(exc))
    return (raw.cycles, raw.energy_pj, program.total_instructions, raw.trace,
            raw.meta.get("analytic_runs"))


def _base(witness: Witness) -> ArchConfig:
    config = get_preset(witness.preset).with_fidelity(witness.fidelity)
    for leaf, value in witness.base:
        config = _set(config, leaf, value)
    return validate(config)


@lru_cache(maxsize=None)
def _observe_base(witness_base: tuple) -> Any:
    workload, preset, fidelity, base = witness_base
    return _observe(workload, _base(Witness(workload, preset, fidelity,
                                            None, base)))


def test_every_leaf_has_a_witness():
    leaves = set(_leaves(ArchConfig()))
    unwitnessed = leaves - set(WITNESSES) - set(ALLOWLIST)
    assert not unwitnessed, (
        f"configuration fields without a witness: {sorted(unwitnessed)}; "
        "add an entry to WITNESSES (a mutation that moves the model) "
        "or delete the field")
    assert not (set(WITNESSES) | set(ALLOWLIST)) - leaves, "stale entries"
    assert not set(WITNESSES) & set(ALLOWLIST)


@pytest.mark.parametrize("leaf", sorted(WITNESSES))
def test_leaf_moves_the_model(leaf):
    witness = WITNESSES[leaf]
    base = _base(witness)
    section, _, name = leaf.rpartition(".")
    owner = getattr(base, section) if section else base
    assert getattr(owner, name) != witness.value, "the mutation is a no-op"
    mutated = validate(_set(base, leaf, witness.value))
    before = _observe_base(witness[:3] + (witness.base,))
    assert _observe(witness.workload, mutated) != before, (
        f"{leaf}={witness.value!r} does not move {witness.workload} on "
        f"{witness.preset}/{witness.fidelity}")
