"""Tests for the instruction set: classes, dependence footprints, groups,
programs, binary/text codecs, static verification."""

import dataclasses

import pytest

from repro.isa import (
    ChipProgram,
    FlowInfo,
    Group,
    GroupError,
    GroupTable,
    MvmInst,
    Program,
    ProgramError,
    ScalarInst,
    TransferInst,
    VectorInst,
    VerificationError,
    assemble,
    assemble_line,
    decode,
    decode_bytes,
    disassemble,
    disassemble_line,
    encode,
    encode_bytes,
    ranges_overlap,
    verify_program,
)


class TestRanges:
    @pytest.mark.parametrize("a,b,expected", [
        ((0, 10), (5, 15), True),
        ((0, 10), (10, 20), False),    # half-open: touching != overlap
        ((5, 6), (0, 100), True),
        ((0, 1), (1, 2), False),
    ])
    def test_overlap(self, a, b, expected):
        assert ranges_overlap(a, b) is expected
        assert ranges_overlap(b, a) is expected


class TestInstructionFootprints:
    def test_mvm_reads_src_writes_dst(self):
        inst = MvmInst(group=3, src=100, src_bytes=50, dst=200, dst_bytes=80)
        assert inst.reads_mem() == ((100, 150),)
        assert inst.writes_mem() == ((200, 280),)
        assert inst.groups_used() == (3,)
        assert inst.unit == "matrix"

    def test_vector_two_source_footprint(self):
        inst = VectorInst(op="VADD", src1=0, src2=64, dst=128,
                          length=16, src_bytes=64, dst_bytes=64)
        assert inst.reads_mem() == ((0, 64), (64, 128))
        assert inst.writes_mem() == ((128, 192),)
        assert inst.n_sources == 2

    def test_vector_one_source_footprint(self):
        inst = VectorInst(op="VRELU", src1=0, length=8, src_bytes=32,
                          dst=64, dst_bytes=32)
        assert inst.reads_mem() == ((0, 32),)
        assert inst.n_sources == 1

    def test_unknown_vector_op_rejected(self):
        with pytest.raises(ValueError, match="unknown vector op"):
            VectorInst(op="VFLY")

    def test_send_reads_recv_writes(self):
        send = TransferInst(op="SEND", addr=10, bytes=20)
        recv = TransferInst(op="RECV", addr=10, bytes=20)
        assert send.reads_mem() and not send.writes_mem()
        assert recv.writes_mem() and not recv.reads_mem()

    def test_load_writes_store_reads(self):
        load = TransferInst(op="LOAD", addr=0, bytes=4)
        store = TransferInst(op="STORE", addr=0, bytes=4)
        assert load.writes_mem() == ((0, 4),)
        assert store.reads_mem() == ((0, 4),)

    def test_unknown_transfer_op_rejected(self):
        with pytest.raises(ValueError):
            TransferInst(op="TELEPORT")

    def test_scalar_register_footprints(self):
        li = ScalarInst(op="LI", rd=3, imm=7)
        add = ScalarInst(op="SADD", rd=1, rs1=2, rs2=3)
        assert li.writes_regs() == (3,)
        assert li.reads_regs() == ()
        assert add.reads_regs() == (2, 3)
        assert add.writes_regs() == (1,)

    def test_branch_is_control(self):
        assert ScalarInst(op="SBEQ", rs1=0, rs2=1, target=5).is_control
        assert ScalarInst(op="HALT").is_control
        assert not ScalarInst(op="SADD").is_control


class TestConflicts:
    def test_raw_through_memory(self):
        writer = MvmInst(group=0, src=0, src_bytes=4, dst=100, dst_bytes=50)
        reader = VectorInst(op="VRELU", src1=120, src_bytes=10,
                            dst=300, dst_bytes=10, length=10)
        assert reader.conflicts_with(writer)

    def test_war_through_memory(self):
        reader = VectorInst(op="VRELU", src1=100, src_bytes=50,
                            dst=300, dst_bytes=50, length=50)
        writer = MvmInst(group=0, src=0, src_bytes=4, dst=120, dst_bytes=10)
        assert writer.conflicts_with(reader)

    def test_waw_through_memory(self):
        a = VectorInst(op="VMOV", src1=0, src_bytes=4, dst=100, dst_bytes=50,
                       length=4)
        b = VectorInst(op="VMOV", src1=8, src_bytes=4, dst=140, dst_bytes=50,
                       length=4)
        assert b.conflicts_with(a)

    def test_reads_do_not_conflict(self):
        a = VectorInst(op="VRELU", src1=0, src_bytes=50, dst=100,
                       dst_bytes=50, length=50)
        b = VectorInst(op="VRELU", src1=0, src_bytes=50, dst=200,
                       dst_bytes=50, length=50)
        assert not b.conflicts_with(a)

    def test_structural_hazard_same_group(self):
        a = MvmInst(group=7, src=0, src_bytes=4, dst=100, dst_bytes=4)
        b = MvmInst(group=7, src=200, src_bytes=4, dst=300, dst_bytes=4)
        assert b.conflicts_with(a)

    def test_no_hazard_different_groups(self):
        a = MvmInst(group=1, src=0, src_bytes=4, dst=100, dst_bytes=4)
        b = MvmInst(group=2, src=0, src_bytes=4, dst=200, dst_bytes=4)
        assert not b.conflicts_with(a)

    def test_register_raw(self):
        writer = ScalarInst(op="LI", rd=5, imm=1)
        reader = ScalarInst(op="SADD", rd=6, rs1=5, rs2=0)
        assert reader.conflicts_with(writer)


class TestGroups:
    def test_define_and_get(self):
        table = GroupTable(core=0)
        g = table.define(layer="conv1", copy=0, row_block=2,
                         n_crossbars=4, rows=128, cols=512)
        assert table.get(g.group_id) is g
        assert g.active_cells == 128 * 512

    def test_dense_ids(self):
        table = GroupTable(core=0)
        ids = [table.define("l", 0, r, 1, 8, 8).group_id for r in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_crossbars_used_accumulates(self):
        table = GroupTable(core=0)
        table.define("a", 0, 0, 3, 8, 8)
        table.define("b", 0, 0, 5, 8, 8)
        assert table.crossbars_used == 8

    def test_undefined_group_raises(self):
        with pytest.raises(GroupError, match="undefined group"):
            GroupTable(core=0).get(3)

    def test_by_layer_buckets(self):
        table = GroupTable(core=0)
        table.define("a", 0, 0, 1, 8, 8)
        table.define("b", 0, 0, 1, 8, 8)
        table.define("a", 1, 0, 1, 8, 8)
        buckets = table.by_layer()
        assert len(buckets["a"]) == 2
        assert len(buckets["b"]) == 1

    def test_empty_group_rejected(self):
        with pytest.raises(GroupError):
            Group(group_id=0, layer="x", copy=0, row_block=0,
                  n_crossbars=0, rows=8, cols=8)


class TestProgram:
    def test_seal_appends_halt_and_numbers(self):
        """Sealing appends the HALT and numbers nothing: an instruction is
        a value, and its stream position is where it sits in the list."""
        nop = ScalarInst(op="NOP")
        p = Program(core=0)
        p.append(nop)
        p.append(nop)  # one value at two positions
        p.seal()
        assert isinstance(p.instructions[-1], ScalarInst)
        assert p.instructions[-1].op == "HALT"
        assert p.instructions == [nop, nop, ScalarInst(op="HALT")]
        assert not hasattr(nop, "index")
        assert p.listing().splitlines()[1:] == [
            "       0  NOP", "       1  NOP", "       2  HALT"]

    def test_seal_idempotent_halt(self):
        p = Program(core=0)
        p.append(ScalarInst(op="HALT"))
        p.seal()
        assert len(p) == 1

    def test_append_after_seal_rejected(self):
        p = Program(core=0).seal()
        with pytest.raises(ProgramError, match="sealed"):
            p.append(ScalarInst(op="NOP"))

    def test_counts_by_unit(self):
        p = Program(core=0)
        p.append(MvmInst(group=0, src=0, src_bytes=1, dst=0, dst_bytes=1))
        p.append(VectorInst(op="VRELU", src1=0, src_bytes=1, dst=0,
                            dst_bytes=1, length=1))
        p.seal()
        counts = p.counts_by_unit()
        assert counts == {"matrix": 1, "vector": 1, "transfer": 0, "scalar": 1}

    def test_listing_truncates(self):
        p = Program(core=0)
        for _ in range(10):
            p.append(ScalarInst(op="NOP"))
        p.seal()
        text = p.listing(limit=3)
        assert "more" in text

    def test_listing_rejects_a_negative_limit(self):
        """A negative limit is an error, not a slice that drops the last
        instructions."""
        p = Program(core=0).seal()
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            p.listing(limit=-1)


class TestEncoding:
    CASES = [
        MvmInst(group=3, src=1024, src_bytes=512, dst=8192, dst_bytes=256,
                count=4),
        VectorInst(op="VADD", src1=64, src2=128, dst=256, length=32,
                   src_bytes=128, dst_bytes=128),
        VectorInst(op="VMAXPOOL", src1=0, dst=512, length=64,
                   src_bytes=1024, dst_bytes=64),
        TransferInst(op="SEND", peer=9, addr=2048, bytes=512, flow=7, seq=3),
        TransferInst(op="RECV", peer=2, addr=0, bytes=64, flow=0, seq=0),
        TransferInst(op="LOAD", peer=0, addr=128, bytes=256, flow=0, seq=1),
        ScalarInst(op="LI", rd=5, imm=123456),
        ScalarInst(op="SBNE", rs1=1, rs2=2, target=17),
        ScalarInst(op="HALT"),
    ]

    @pytest.mark.parametrize("inst", CASES, ids=lambda i: repr(i))
    def test_word_roundtrip(self, inst):
        again = decode(encode(inst))
        assert type(again) is type(inst)
        for field in vars(inst):
            if field in ("layer", "index"):
                continue
            assert getattr(again, field) == getattr(inst, field), field

    @pytest.mark.parametrize("inst", CASES, ids=lambda i: repr(i))
    def test_bytes_roundtrip(self, inst):
        data = encode_bytes(inst)
        assert len(data) == 24
        again = decode_bytes(data)
        assert type(again) is type(inst)

    def test_field_overflow_rejected(self):
        from repro.isa import EncodingError
        with pytest.raises(EncodingError, match="does not fit"):
            encode(MvmInst(group=1 << 30, src=0, src_bytes=1, dst=0,
                           dst_bytes=1))

    def test_bad_word_length_rejected(self):
        from repro.isa import EncodingError
        with pytest.raises(EncodingError):
            decode_bytes(b"\x00" * 7)


class TestAssembly:
    def test_line_roundtrip(self):
        inst = MvmInst(group=2, src=64, src_bytes=24, dst=512, dst_bytes=96,
                       count=3, layer="conv1")
        line = disassemble_line(inst)
        again = assemble_line(line)
        assert isinstance(again, MvmInst)
        assert again.group == 2 and again.count == 3
        assert again.layer == "conv1"

    def test_program_roundtrip(self):
        program = [
            TransferInst(op="RECV", peer=1, addr=0, bytes=64, flow=2, seq=0),
            MvmInst(group=0, src=0, src_bytes=64, dst=128, dst_bytes=64,
                    count=1),
            VectorInst(op="VRELU", src1=128, dst=256, length=64,
                       src_bytes=64, dst_bytes=64),
            TransferInst(op="SEND", peer=2, addr=256, bytes=64, flow=3, seq=0),
            ScalarInst(op="HALT"),
        ]
        text = disassemble(program)
        again = assemble(text)
        assert len(again) == len(program)
        assert [type(i) for i in again] == [type(i) for i in program]

    def test_comments_and_blanks_skipped(self):
        text = "\n# a comment\n; another\n  \nNOP\n"
        out = assemble(text)
        assert len(out) == 1

    def test_unknown_opcode_reports_line(self):
        from repro.isa import AsmError
        with pytest.raises(AsmError, match="line 2"):
            assemble("NOP\nFROB x=1")

    def test_bad_value_rejected(self):
        from repro.isa import AsmError
        with pytest.raises(AsmError, match="non-integer"):
            assemble_line("MVM group=banana")


def _well_formed_chip(config) -> ChipProgram:
    """Two cores exchanging one message, with valid groups."""
    chip = ChipProgram(network="hand")
    table = GroupTable(core=0)
    table.define("l1", 0, 0, 1, 16, 16)
    p0 = Program(core=0, groups=table)
    p0.append(MvmInst(group=0, src=0, src_bytes=16, dst=64, dst_bytes=64,
                      layer="l1"))
    p0.append(TransferInst(op="SEND", peer=1, addr=64, bytes=64, flow=0,
                           seq=0, layer="l1"))
    chip.programs[0] = p0.seal()
    p1 = Program(core=1, groups=GroupTable(core=1))
    p1.append(TransferInst(op="RECV", peer=0, addr=0, bytes=64, flow=0,
                           seq=0, layer="l2"))
    chip.programs[1] = p1.seal()
    chip.flows[0] = FlowInfo(flow_id=0, src_core=0, dst_core=1, layer="l2",
                             n_messages=1, bytes_per_message=64)
    return chip


class TestVerification:
    def test_well_formed_passes(self, tiny_cfg):
        verify_program(_well_formed_chip(tiny_cfg), tiny_cfg)

    def test_unsealed_program_rejected(self, tiny_cfg):
        chip = ChipProgram(network="x")
        chip.programs[0] = Program(core=0)
        with pytest.raises(VerificationError, match="not sealed"):
            verify_program(chip, tiny_cfg)

    def test_missing_recv_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        del chip.programs[1]
        with pytest.raises(VerificationError, match="sends vs"):
            verify_program(chip, tiny_cfg)

    def test_undefined_group_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        bad = Program(core=1, groups=GroupTable(core=1))
        bad.append(MvmInst(group=5, src=0, src_bytes=4, dst=8, dst_bytes=4))
        bad.append(TransferInst(op="RECV", peer=0, addr=0, bytes=64, flow=0,
                                seq=0))
        chip.programs[1] = bad.seal()
        with pytest.raises(VerificationError, match="undefined group"):
            verify_program(chip, tiny_cfg)

    def test_recv_from_a_peer_other_than_the_source_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        bad = Program(core=1, groups=GroupTable(core=1))
        bad.append(TransferInst(op="RECV", peer=2, addr=0, bytes=64, flow=0,
                                seq=0))
        chip.programs[1] = bad.seal()
        with pytest.raises(VerificationError,
                           match="flow 0: RECV peer 2 != declared src 0"):
            verify_program(chip, tiny_cfg)

    def test_send_to_a_peer_other_than_the_destination_detected(self,
                                                                tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        bad = Program(core=0, groups=chip.programs[0].groups)
        bad.append(TransferInst(op="SEND", peer=2, addr=0, bytes=64, flow=0,
                                seq=0))
        chip.programs[0] = bad.seal()
        with pytest.raises(VerificationError,
                           match="flow 0: SEND peer 2 != declared dst 1"):
            verify_program(chip, tiny_cfg)

    def test_declared_message_count_mismatch_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        chip.flows[0] = dataclasses.replace(chip.flows[0], n_messages=2)
        with pytest.raises(VerificationError,
                           match=r"flow 0 \(l2\): declared 2 messages, "
                                 r"found 1"):
            verify_program(chip, tiny_cfg)

    def test_flow_never_declared_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        del chip.flows[0]
        with pytest.raises(VerificationError,
                           match="flow 0: used by transfers but never "
                                 "declared"):
            verify_program(chip, tiny_cfg)

    def test_halt_before_the_end_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        early = Program(core=2, groups=GroupTable(core=2))
        early.append(ScalarInst(op="HALT"))
        early.append(ScalarInst(op="NOP"))
        chip.programs[2] = early.seal()
        with pytest.raises(VerificationError,
                           match="core 2: HALT at 0 is not the last "
                                 "instruction"):
            verify_program(chip, tiny_cfg)

    def test_memory_out_of_range_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        huge = tiny_cfg.core.local_memory_bytes + 10
        bad = Program(core=2, groups=GroupTable(core=2))
        bad.append(VectorInst(op="VRELU", src1=huge, src_bytes=4, dst=0,
                              dst_bytes=4, length=1))
        chip.programs[2] = bad.seal()
        with pytest.raises(VerificationError, match="outside"):
            verify_program(chip, tiny_cfg)

    def test_peer_outside_chip_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        bad = Program(core=2, groups=GroupTable(core=2))
        bad.append(TransferInst(op="SEND", peer=999, addr=0, bytes=4,
                                flow=0, seq=1))
        chip.programs[2] = bad.seal()
        with pytest.raises(VerificationError, match="peer"):
            verify_program(chip, tiny_cfg)

    def test_undeclared_flow_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        extra = Program(core=2, groups=GroupTable(core=2))
        extra.append(TransferInst(op="SEND", peer=1, addr=0, bytes=4,
                                  flow=42, seq=0))
        chip.programs[2] = extra.seal()
        with pytest.raises(VerificationError, match="flow 42"):
            verify_program(chip, tiny_cfg)

    def test_non_dense_seq_detected(self, tiny_cfg):
        chip = _well_formed_chip(tiny_cfg)
        p0 = chip.programs[0]
        # rebuild core 0 with a gap in the sequence numbers
        table = p0.groups
        bad = Program(core=0, groups=table)
        bad.append(TransferInst(op="SEND", peer=1, addr=0, bytes=64, flow=0,
                                seq=5))
        chip.programs[0] = bad.seal()
        with pytest.raises(VerificationError):
            verify_program(chip, tiny_cfg)

    def test_branch_target_out_of_range_detected(self, tiny_cfg):
        chip = ChipProgram(network="x")
        p = Program(core=0, groups=GroupTable(core=0))
        p.append(ScalarInst(op="SJMP", target=99))
        chip.programs[0] = p.seal()
        with pytest.raises(VerificationError, match="target"):
            verify_program(chip, tiny_cfg)

    def test_register_out_of_range_detected(self, tiny_cfg):
        chip = ChipProgram(network="x")
        p = Program(core=0, groups=GroupTable(core=0))
        p.append(ScalarInst(op="LI", rd=40, imm=1))
        chip.programs[0] = p.seal()
        with pytest.raises(VerificationError, match="register"):
            verify_program(chip, tiny_cfg)

    def test_core_id_outside_chip_detected(self, tiny_cfg):
        chip = ChipProgram(network="x")
        p = Program(core=99, groups=GroupTable(core=99))
        chip.programs[99] = p.seal()
        with pytest.raises(VerificationError, match="outside"):
            verify_program(chip, tiny_cfg)
