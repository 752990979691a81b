"""Tests for core execution: hand-written programs on the chip model.

These build small chip programs directly (no compiler) to pin down unit
latencies, hazard behaviour, ROB windowing, scalar semantics and energy.
"""

import dataclasses

import pytest

from repro.arch import ChipModel, run_program
from repro.config import tiny_chip
from repro.isa import (
    ChipProgram,
    FlowInfo,
    GroupTable,
    MvmInst,
    Program,
    ProgramError,
    ScalarInst,
    TransferInst,
    VectorInst,
)
from repro.sim import DeadlockError

FIDELITIES = ["cycle", "fast"]


def single_core_chip(instructions, *, groups=None, config=None):
    """Wrap an instruction list as a one-core chip program."""
    chip = ChipProgram(network="hand")
    table = groups or GroupTable(core=0)
    program = Program(core=0, groups=table)
    for inst in instructions:
        program.append(inst)
    chip.programs[0] = program.seal()
    return chip


def run_single(instructions, *, groups=None, config=None):
    config = config or tiny_chip()
    chip = single_core_chip(instructions, groups=groups)
    return run_program(chip, config)


class TestScalarExecution:
    def test_li_and_add(self):
        config = tiny_chip()
        chip = single_core_chip([
            ScalarInst(op="LI", rd=1, imm=30),
            ScalarInst(op="LI", rd=2, imm=12),
            ScalarInst(op="SADD", rd=3, rs1=1, rs2=2),
        ])
        model = ChipModel(chip, config)
        model.run()
        assert model.cores[0].regs[3] == 42

    def test_sub_mul_and_or(self):
        config = tiny_chip()
        chip = single_core_chip([
            ScalarInst(op="LI", rd=1, imm=10),
            ScalarInst(op="LI", rd=2, imm=3),
            ScalarInst(op="SSUB", rd=3, rs1=1, rs2=2),
            ScalarInst(op="SMUL", rd=4, rs1=3, rs2=2),
            ScalarInst(op="SAND", rd=5, rs1=1, rs2=2),
            ScalarInst(op="SOR", rd=6, rs1=1, rs2=2),
        ])
        model = ChipModel(chip, config)
        model.run()
        regs = model.cores[0].regs
        assert regs[3] == 7
        assert regs[4] == 21
        assert regs[5] == 10 & 3
        assert regs[6] == 10 | 3

    def test_loop_via_branch(self):
        """A countdown loop: LI r1,3; LI r2,1; LI r3,0;
        loop: SSUB r1,r1,r2; SBNE r1,r3,loop."""
        config = tiny_chip()
        chip = single_core_chip([
            ScalarInst(op="LI", rd=1, imm=3),
            ScalarInst(op="LI", rd=2, imm=1),
            ScalarInst(op="LI", rd=3, imm=0),
            ScalarInst(op="SSUB", rd=1, rs1=1, rs2=2),   # index 3
            ScalarInst(op="SBNE", rs1=1, rs2=3, target=3),
        ])
        model = ChipModel(chip, config)
        model.run()
        assert model.cores[0].regs[1] == 0

    def test_forward_jump_skips(self):
        config = tiny_chip()
        chip = single_core_chip([
            ScalarInst(op="LI", rd=1, imm=1),
            ScalarInst(op="SJMP", target=3),
            ScalarInst(op="LI", rd=1, imm=99),  # skipped
            ScalarInst(op="NOP"),
        ])
        model = ChipModel(chip, config)
        model.run()
        assert model.cores[0].regs[1] == 1

    def test_beq_taken_and_not_taken(self):
        config = tiny_chip()
        chip = single_core_chip([
            ScalarInst(op="LI", rd=1, imm=5),
            ScalarInst(op="LI", rd=2, imm=5),
            ScalarInst(op="SBEQ", rs1=1, rs2=2, target=4),
            ScalarInst(op="LI", rd=3, imm=111),  # skipped
            ScalarInst(op="NOP"),
        ])
        model = ChipModel(chip, config)
        model.run()
        assert model.cores[0].regs[3] == 0


class TestMatrixUnit:
    def test_mvm_latency_scales_with_count(self):
        config = tiny_chip()
        table = GroupTable(core=0)
        table.define("l", 0, 0, 1, config.crossbar.rows, config.crossbar.cols)
        one = run_single([MvmInst(group=0, src=0, src_bytes=64, dst=256,
                                  dst_bytes=256, count=1)], groups=table)
        table2 = GroupTable(core=0)
        table2.define("l", 0, 0, 1, config.crossbar.rows, config.crossbar.cols)
        four = run_single([MvmInst(group=0, src=0, src_bytes=64, dst=256,
                                   dst_bytes=256, count=4)], groups=table2)
        assert four.cycles > one.cycles
        assert four.cycles >= 4 * config.crossbar.mvm_cycles()

    def test_independent_groups_overlap(self):
        config = tiny_chip().with_rob_size(8)
        table = GroupTable(core=0)
        for r in range(4):
            table.define("l", 0, r, 1, 64, 64)
        insts = [MvmInst(group=g, src=0, src_bytes=64, dst=1024 + g * 512,
                         dst_bytes=256, count=4) for g in range(4)]
        overlapped = run_single(insts, groups=table, config=config)

        serial_cfg = tiny_chip().with_rob_size(1)
        table2 = GroupTable(core=0)
        for r in range(4):
            table2.define("l", 0, r, 1, 64, 64)
        serial = run_single(insts, groups=table2, config=serial_cfg)
        assert overlapped.cycles < serial.cycles

    def test_same_group_serializes(self):
        """Structural hazard: two MVMs on one group never overlap."""
        config = tiny_chip().with_rob_size(8)
        table = GroupTable(core=0)
        table.define("l", 0, 0, 1, 64, 64)
        insts = [MvmInst(group=0, src=0, src_bytes=64, dst=1024 + i * 512,
                         dst_bytes=256, count=2) for i in range(3)]
        raw = run_single(insts, groups=table, config=config)
        assert raw.cycles >= 3 * 2 * config.crossbar.mvm_cycles()

    def test_shared_adc_domain_serializes(self):
        base = tiny_chip().with_rob_size(8)
        constrained = dataclasses.replace(base, core=dataclasses.replace(
            base.core, shared_adc_domains=1))

        def build():
            table = GroupTable(core=0)
            for r in range(4):
                table.define("l", 0, r, 1, 64, 64)
            return table, [MvmInst(group=g, src=0, src_bytes=64,
                                   dst=1024 + g * 512, dst_bytes=256,
                                   count=2) for g in range(4)]

        t1, insts = build()
        free = run_single(insts, groups=t1, config=base)
        t2, insts2 = build()
        tight = run_single(insts2, groups=t2, config=constrained)
        assert tight.cycles > free.cycles

    def test_mvm_energy_charged(self):
        config = tiny_chip()
        table = GroupTable(core=0)
        table.define("l", 0, 0, 2, 64, 128)
        raw = run_single([MvmInst(group=0, src=0, src_bytes=64, dst=256,
                                  dst_bytes=512, count=3)], groups=table,
                         config=config)
        e = config.energy
        expected_xbar = e.xbar_read_pj_per_cell * 64 * 128 * 3
        assert raw.energy_pj["xbar"] == pytest.approx(expected_xbar)
        assert raw.energy_pj["adc"] > 0
        assert raw.energy_pj["dac"] > 0

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_mvm_energy_matches_energy_meter(self, fidelity):
        """An MVM's charges, read from the cost table by either tier,
        must equal what :class:`EnergyMeter` computes for the same MVM."""
        from repro.arch.energy import EnergyMeter

        config = tiny_chip().with_fidelity(fidelity)
        table = GroupTable(core=0)
        table.define("l", 0, 0, 2, 64, 128)
        inst = MvmInst(group=0, src=0, src_bytes=64, dst=256,
                       dst_bytes=512, count=3)
        raw = run_single([inst], groups=table, config=config)

        reference = EnergyMeter()
        reference.mvm(config.energy, 64, 128, config.crossbar.dac_phases, 3)
        in_bytes = 3 * 64 * config.compiler.activation_bytes
        reference.local_mem(config.energy, in_bytes + inst.dst_bytes)
        for category in ("xbar", "dac", "adc", "local_mem"):
            assert raw.energy_pj[category] == reference.pj[category], category


class TestVectorUnit:
    def test_latency_scales_with_length(self):
        short = run_single([VectorInst(op="VRELU", src1=0, src_bytes=32,
                                       dst=256, dst_bytes=32, length=32)])
        long = run_single([VectorInst(op="VRELU", src1=0, src_bytes=4096,
                                      dst=8192, dst_bytes=4096, length=4096)])
        assert long.cycles > short.cycles

    def test_vector_unit_is_serial(self):
        config = tiny_chip().with_rob_size(8)
        insts = [VectorInst(op="VRELU", src1=i * 1024, src_bytes=512,
                            dst=16384 + i * 1024, dst_bytes=512, length=512)
                 for i in range(4)]
        raw = run_single(insts, config=config)
        one = run_single([insts[0]], config=config)
        assert raw.cycles >= 3 * (one.cycles - 10)

    def test_raw_chain_orders_operations(self):
        """VRELU reading the MVM's output waits for it."""
        config = tiny_chip()
        table = GroupTable(core=0)
        table.define("l", 0, 0, 1, 64, 64)
        raw = run_single([
            MvmInst(group=0, src=0, src_bytes=64, dst=1024, dst_bytes=256,
                    count=2),
            VectorInst(op="VRELU", src1=1024, src_bytes=256, dst=2048,
                       dst_bytes=256, length=64),
        ], groups=table, config=config)
        assert raw.cycles >= 2 * config.crossbar.mvm_cycles()

    def test_vector_energy_charged(self):
        config = tiny_chip()
        raw = run_single([VectorInst(op="VADD", src1=0, src2=512, dst=1024,
                                     dst_bytes=256, src_bytes=256,
                                     length=64)], config=config)
        assert raw.energy_pj["vector"] == pytest.approx(
            config.energy.vector_pj_per_element * 64)

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_vector_energy_matches_energy_meter(self, fidelity):
        """A vector op's charges, read from the cost table by either
        tier, must equal :meth:`EnergyMeter.vector_op` for the same
        instruction."""
        from repro.arch.energy import EnergyMeter

        config = tiny_chip().with_fidelity(fidelity)
        inst = VectorInst(op="VADD", src1=0, src2=512, dst=1024,
                          dst_bytes=256, src_bytes=256, length=64)
        raw = run_single([inst], config=config)
        reference = EnergyMeter()
        reference.vector_op(config.energy, inst.length,
                            inst.src_bytes * 2 + inst.dst_bytes)
        assert raw.energy_pj["vector"] == reference.pj["vector"]
        assert raw.energy_pj["local_mem"] == reference.pj["local_mem"]

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_vmatmul_energy_matches_energy_meter(self, fidelity):
        """The VMATMUL MAC-stream charge in the cost table must equal
        :meth:`EnergyMeter.vector_macs`, at either tier."""
        from repro.arch.energy import EnergyMeter

        config = tiny_chip().with_fidelity(fidelity)
        inst = VectorInst(op="VMATMUL", src1=0, src2=512, dst=4096,
                          length=2048, src_bytes=128, src2_bytes=1024,
                          dst_bytes=256)
        raw = run_single([inst], config=config)
        reference = EnergyMeter()
        reference.vector_macs(config.energy, inst.length,
                              inst.src_bytes + inst.src2_bytes
                              + inst.dst_bytes)
        assert raw.energy_pj["vector"] == reference.pj["vector"]
        assert raw.energy_pj["local_mem"] == reference.pj["local_mem"]

    # The cycle-tier cases keep the bare opcode as their id.
    @pytest.mark.parametrize("op,fidelity", [
        pytest.param(op, fidelity,
                     id=op if fidelity == "cycle" else f"{op}-{fidelity}")
        for fidelity in FIDELITIES
        for op in ("VSOFTMAX", "VLAYERNORM", "VGELU")])
    def test_special_op_energy_matches_energy_meter(self, op, fidelity):
        """The transcendental-op charge in the cost table must equal
        :meth:`EnergyMeter.vector_special_op`, at either tier."""
        from repro.arch.energy import EnergyMeter

        config = tiny_chip().with_fidelity(fidelity)
        inst = VectorInst(op=op, src1=0, dst=4096, length=96,
                          src_bytes=96, dst_bytes=96)
        raw = run_single([inst], config=config)
        reference = EnergyMeter()
        reference.vector_special_op(config.energy, inst.length,
                                    inst.src_bytes + inst.dst_bytes)
        assert raw.energy_pj["vector"] == reference.pj["vector"]
        assert raw.energy_pj["local_mem"] == reference.pj["local_mem"]

    def test_special_op_latency_scales_with_cycles_per_element(self):
        """Transcendental ops take vector_special_cycles_per_element x
        the ALU time of a plain element-wise op of the same length."""
        config = tiny_chip()
        plain = VectorInst(op="VRELU", src1=0, dst=4096, length=256,
                           src_bytes=256, dst_bytes=256)
        special = VectorInst(op="VGELU", src1=0, dst=4096, length=256,
                             src_bytes=256, dst_bytes=256)
        lanes = config.core.vector_lanes
        factor = config.core.vector_special_cycles_per_element
        t_plain = run_single([plain], config=config).cycles
        t_special = run_single([special], config=config).cycles
        assert t_special - t_plain == (-(-256 * factor // lanes)
                                       - (-(-256 // lanes)))


class TestTransferAndRob:
    def test_two_core_send_recv(self):
        config = tiny_chip()
        chip = ChipProgram(network="pair")
        p0 = Program(core=0, groups=GroupTable(core=0))
        p0.append(TransferInst(op="SEND", peer=1, addr=0, bytes=128, flow=0,
                               seq=0, layer="l"))
        chip.programs[0] = p0.seal()
        p1 = Program(core=1, groups=GroupTable(core=1))
        p1.append(TransferInst(op="RECV", peer=0, addr=0, bytes=128, flow=0,
                               seq=0, layer="l"))
        chip.programs[1] = p1.seal()
        chip.flows[0] = FlowInfo(flow_id=0, src_core=0, dst_core=1,
                                 layer="l", n_messages=1,
                                 bytes_per_message=128, window=2)
        raw = run_program(chip, config)
        assert raw.cycles > 0
        assert raw.noc["messages"] == 1

    def test_missing_sender_deadlocks_with_diagnostics(self):
        config = tiny_chip()
        chip = ChipProgram(network="broken")
        p1 = Program(core=1, groups=GroupTable(core=1))
        p1.append(TransferInst(op="RECV", peer=0, addr=0, bytes=128, flow=0,
                               seq=0))
        chip.programs[1] = p1.seal()
        chip.flows[0] = FlowInfo(flow_id=0, src_core=0, dst_core=1,
                                 layer="l", n_messages=1,
                                 bytes_per_message=128, window=2)
        with pytest.raises(DeadlockError, match="core 1"):
            run_program(chip, config)

    def test_max_cycles_guard(self):
        config = tiny_chip()
        chip = ChipProgram(network="slow")
        table = GroupTable(core=0)
        table.define("l", 0, 0, 1, 64, 64)
        p = Program(core=0, groups=table)
        for i in range(50):
            p.append(MvmInst(group=0, src=0, src_bytes=64, dst=1024,
                             dst_bytes=256, count=8))
        chip.programs[0] = p.seal()
        with pytest.raises(DeadlockError, match="max_cycles"):
            run_program(chip, config, max_cycles=100)

    def test_load_store_roundtrip(self):
        config = tiny_chip()
        raw = run_single([
            TransferInst(op="LOAD", peer=0, addr=0, bytes=256, flow=0, seq=0),
            TransferInst(op="STORE", peer=0, addr=0, bytes=256, flow=0, seq=0),
        ], config=config)
        assert raw.noc["gmem_read"] == 256
        assert raw.noc["gmem_written"] == 256

    def test_rob_stall_counted_when_window_small(self):
        config = tiny_chip().with_rob_size(1)
        table = GroupTable(core=0)
        for r in range(4):
            table.define("l", 0, r, 1, 64, 64)
        insts = [MvmInst(group=g, src=0, src_bytes=64, dst=1024 + g * 512,
                         dst_bytes=256, count=2) for g in range(4)]
        chip = single_core_chip(insts, groups=table)
        model = ChipModel(chip, config)
        model.run()
        assert model.cores[0].rob_stall_cycles > 0

    def test_per_layer_busy_recorded(self):
        config = tiny_chip()
        table = GroupTable(core=0)
        table.define("mylayer", 0, 0, 1, 64, 64)
        raw = run_single([MvmInst(group=0, src=0, src_bytes=64, dst=1024,
                                  dst_bytes=256, count=1, layer="mylayer")],
                         groups=table, config=config)
        assert raw.layer_busy["mylayer"]["matrix"] > 0

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_unsealed_program_is_rejected(self, fidelity):
        """Cost and blocker tables are addressed by stream position, and
        only a sealed program can no longer grow: the chip refuses
        anything else."""
        program = Program(core=0, groups=GroupTable(core=0))
        program.append(ScalarInst(op="LI", rd=1, imm=1))
        chip = ChipProgram(network="unsealed", programs={0: program})
        with pytest.raises(ProgramError,
                           match="core 0: program is not sealed"):
            run_program(chip, tiny_chip().with_fidelity(fidelity))

    def test_leakage_integrated_over_runtime(self):
        config = tiny_chip()
        raw = run_single([VectorInst(op="VRELU", src1=0, src_bytes=1024,
                                     dst=4096, dst_bytes=1024, length=1024)],
                         config=config)
        assert raw.energy_pj["leakage"] > 0


class TestTraceLimit:
    """The completion trace is bounded; a run that dropped events must
    say so (``meta["trace_truncated"]``), and only then.  The fast chip
    falls back to ``CoreModel`` under tracing, so both tiers record (and
    bound) the same events."""

    INSTS = [ScalarInst(op="LI", rd=r, imm=r) for r in range(6)]

    def _run(self, fidelity, limit):
        config = tiny_chip()
        config = dataclasses.replace(config, sim=dataclasses.replace(
            config.sim, trace=True, fidelity=fidelity))
        model = ChipModel(single_core_chip(self.INSTS), config)
        model.trace.limit = limit
        return model.run()

    @pytest.mark.parametrize("fidelity", ["cycle", "fast"])
    def test_truncation_is_reported(self, fidelity):
        raw = self._run(fidelity, limit=4)
        assert len(raw.trace) == 4
        assert raw.meta["trace_truncated"] is True

    @pytest.mark.parametrize("fidelity", ["cycle", "fast"])
    def test_complete_trace_carries_no_flag(self, fidelity):
        raw = self._run(fidelity, limit=len(self.INSTS))  # none dropped
        assert len(raw.trace) == len(self.INSTS)
        assert "trace_truncated" not in raw.meta


class TestUnitProcesses:
    """A cycle-tier core spawns a process only for the units its program
    occupies: control instructions (branches, ``HALT``) resolve at
    dispatch, so a straight-line program ended by ``HALT`` leaves the
    scalar unit without one.  Every unit still reports its tallies."""

    @staticmethod
    def _spawned(chip, config=None):
        model = ChipModel(chip, config or tiny_chip())
        names = []
        spawn = model.sim.spawn

        def recording_spawn(gen, name=""):
            names.append(name)
            return spawn(gen, name)

        model.sim.spawn = recording_spawn
        raw = model.run()
        return names, raw

    def test_halt_only_scalar_work_spawns_no_scalar_process(self):
        chip = single_core_chip([VectorInst(op="VRELU", src1=0, src_bytes=64,
                                            dst=256, dst_bytes=64, length=64)])
        assert chip.programs[0].units_used() == {"vector"}
        names, raw = self._spawned(chip)
        assert "core0.vector" in names and "core0.issue" in names
        assert not {"core0.scalar", "core0.matrix", "core0.transfer"} \
            & set(names)
        assert raw.per_core[0]["unit_ops"] == {
            "matrix": 0, "vector": 1, "transfer": 0, "scalar": 0}

    def test_scalar_alu_ops_keep_their_process(self):
        chip = single_core_chip([ScalarInst(op="LI", rd=1, imm=3),
                                 ScalarInst(op="SJMP", target=2)])
        assert chip.programs[0].units_used() == {"scalar"}
        names, raw = self._spawned(chip)
        assert "core0.scalar" in names
        assert raw.per_core[0]["unit_ops"]["scalar"] == 1

    def test_units_used_is_cached_once_sealed(self):
        program = Program(core=0)
        program.append(ScalarInst(op="LI", rd=1, imm=3))
        assert program.units_used() == {"scalar"}
        assert program.units_used() is not program.units_used()  # unsealed
        program.seal()
        assert program.units_used() is program.units_used()
