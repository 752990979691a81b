"""Randomized oracle tests for the ROB hazard engines.

The ROB answers hazard queries from a precomputed static blocker table
for sealed straight-line programs, and with a program-order
``conflicts_with`` scan of the window for everything else.  These tests
drive both modes through randomized instruction mixes — all four unit
types, deliberately colliding register/memory/group footprints, branches
for the ``oldest_conflict_inst`` path — against the brute-force oracle below
(kept independent of ``repro.arch.rob`` on purpose), across random
allocate/complete interleavings.
"""

import gc
import random
import sys

import pytest

from repro.arch import ReorderBuffer, run_program
from repro.compiler import compile_network
from repro.config import small_chip
from repro.isa import (
    MvmInst,
    Program,
    ScalarInst,
    TransferInst,
    VectorInst,
)
from repro.models import build_model
from repro.sim import Simulator


def random_inst(rng: random.Random):
    """A random instruction with a small footprint universe so overlaps
    are frequent: 4 groups, 6 registers, 8 memory slots of 64 bytes with
    random extents (partial overlaps included)."""
    roll = rng.random()
    addr = rng.randrange(8) * 64
    nbytes = rng.choice((32, 64, 96, 128))
    if roll < 0.3:
        return MvmInst(group=rng.randrange(4), src=addr, src_bytes=nbytes,
                       dst=rng.randrange(8) * 64, dst_bytes=nbytes,
                       count=rng.randint(1, 3))
    if roll < 0.6:
        op = rng.choice(("VADD", "VRELU", "VMOV"))
        return VectorInst(op=op, src1=addr, src2=rng.randrange(8) * 64,
                          src_bytes=nbytes, dst=rng.randrange(8) * 64,
                          dst_bytes=nbytes, length=16)
    if roll < 0.8:
        op = rng.choice(("SEND", "RECV", "LOAD", "STORE"))
        return TransferInst(op=op, addr=addr, bytes=nbytes,
                            flow=rng.randrange(3), seq=0)
    op = rng.choice(("LI", "SADD", "SMUL", "SAND"))
    return ScalarInst(op=op, rd=rng.randrange(6), rs1=rng.randrange(6),
                      rs2=rng.randrange(6), imm=rng.randrange(100))


def oracle_conflicts_before(rob, entry):
    """The seed's linear scan, verbatim."""
    for older in rob.entries:
        if older is entry:
            return False
        if not older.done and entry.inst.conflicts_with(older.inst):
            return True
    return False


def oracle_oldest(rob, entry):
    for older in rob.entries:
        if older is entry:
            return None
        if not older.done and entry.inst.conflicts_with(older.inst):
            return older
    return None


def oracle_oldest_inst(rob, inst):
    return next((e for e in rob.entries
                 if not e.done and inst.conflicts_with(e.inst)), None)


def oracle_has_conflict(rob, inst):
    return oracle_oldest_inst(rob, inst) is not None


def assert_matches_oracle(rob, live, *probes):
    """Every answer the ROB gives right now — whether and with which
    oldest entry each in-flight entry conflicts, and the same for each
    not-yet-allocated probe instruction — must match the oracle's."""
    for entry in live:
        assert (rob.oldest_conflict(entry) is not None) == \
            oracle_conflicts_before(rob, entry)
        assert rob.oldest_conflict(entry) is oracle_oldest(rob, entry)
    for inst in probes:
        assert (rob.oldest_conflict_inst(inst) is not None) == \
            oracle_has_conflict(rob, inst)
        assert rob.oldest_conflict_inst(inst) \
            is oracle_oldest_inst(rob, inst)


@pytest.mark.parametrize("seed", range(8))
def test_scoreboard_matches_linear_scan(seed):
    """No table (branchy / unsealed programs): arbitrary instructions in
    random allocate/complete interleavings, every answer against the
    oracle."""
    rng = random.Random(seed)
    rob = ReorderBuffer(Simulator(), rng.choice((2, 3, 4, 8, 16)))
    live = []
    for pc in range(300):
        if live and (rng.random() < 0.4 or rob.full):
            victim = rng.choice(live)
            live.remove(victim)
            rob.mark_done(victim)
            continue
        entry = rob.allocate(random_inst(rng), pc)
        live.append(entry)
        # probe every in-flight entry plus a fresh branch and a fresh
        # arbitrary instruction
        branch = ScalarInst(op="SBEQ", rs1=rng.randrange(6),
                            rs2=rng.randrange(6), target=0)
        assert_matches_oracle(rob, live, branch, random_inst(rng))


@pytest.mark.parametrize("seed", range(8))
def test_static_table_matches_linear_scan(seed):
    """Table mode (straight-line sealed program): drive an in-order
    allocate / out-of-order complete walk and compare every answer with
    the oracle, plus the not-yet-allocated (branch) probe."""
    rng = random.Random(1000 + seed)
    window = rng.choice((2, 3, 4, 8))
    program = Program(core=0)
    for _ in range(120):
        program.append(random_inst(rng))
    program.seal()
    table = program.static_blockers(window)
    assert table is not None

    rob = ReorderBuffer(Simulator(), window, static_blockers=table)
    insts = program.instructions
    live = []
    pc = 0
    while pc < len(insts) or live:
        can_alloc = pc < len(insts) and not rob.full \
            and not (isinstance(insts[pc], ScalarInst)
                     and insts[pc].is_control)
        if can_alloc and (not live or rng.random() < 0.6):
            entry = rob.allocate(insts[pc], pc)
            live.append(entry)
            pc += 1
        elif live:
            victim = rng.choice(live)
            live.remove(victim)
            rob.mark_done(victim)
        else:
            break
        branch = ScalarInst(op="SBNE", rs1=rng.randrange(6),
                            rs2=rng.randrange(6), target=0)
        assert_matches_oracle(rob, live, branch)


def test_static_blockers_none_for_branchy_programs():
    program = Program(core=0)
    program.append(ScalarInst(op="LI", rd=1, imm=3))
    program.append(ScalarInst(op="SBNE", rs1=1, rs2=0, target=0))
    program.seal()
    assert program.static_blockers(4) is None


def test_static_blockers_cached_per_window():
    program = Program(core=0)
    for i in range(10):
        program.append(VectorInst(op="VMOV", src1=64 * i, src_bytes=64,
                                  dst=64 * (i + 1), dst_bytes=64, length=16))
    program.seal()
    t4 = program.static_blockers(4)
    assert program.static_blockers(4) is t4  # cached
    t2 = program.static_blockers(2)
    assert t2 is not t4
    # the chain VMOVs conflict with their immediate predecessor (RAW):
    # entries are relative lags, so that is lag 1
    assert all(1 in t4[i] for i in range(1, 10))


def test_static_blockers_window_bound():
    """Conflicts further apart than the window are excluded: they can
    never be in flight together."""
    program = Program(core=0)
    # instructions 0 and 5 write the same memory; 1..4 are unrelated
    program.append(VectorInst(op="VMOV", src1=0, src_bytes=32, dst=1024,
                              dst_bytes=32, length=8))
    for i in range(4):
        program.append(ScalarInst(op="LI", rd=i, imm=i))
    program.append(VectorInst(op="VMOV", src1=64, src_bytes=32, dst=1024,
                              dst_bytes=32, length=8))
    program.seal()
    assert 5 in program.static_blockers(8)[5]  # lag 5 = instruction 0
    assert program.static_blockers(4)[5] == ()


# -- the table itself: brute-force oracle, sharing, allocation budget ---------

TABLE_WINDOWS = (1, 2, 3, 4, 8, 16, 32, 64, 100)


def oracle_table(insts, window):
    """Pairwise ``conflicts_with`` over the ``window - 1`` predecessors,
    oldest first — no sweep, no shared state with the builder."""
    return tuple(
        tuple(d for d in range(min(i, window - 1), 0, -1)
              if inst.conflicts_with(insts[i - d]))
        for i, inst in enumerate(insts))


@pytest.mark.parametrize("seed, n, early_halt", [
    (0, 0, False),  # the empty program (seal() adds the HALT)
    (1, 5, False), (2, 60, False), (3, 150, True),
    (4, 150, False), (5, 150, False)])
def test_static_table_matches_pairwise_oracle(seed, n, early_halt):
    rng = random.Random(2000 + seed)
    program = Program(core=0)
    halt_at = rng.randrange(n) if early_halt else None
    for i in range(n):
        program.append(ScalarInst(op="HALT") if i == halt_at
                       else random_inst(rng))
    program.seal()
    insts = program.instructions
    for window in TABLE_WINDOWS:
        assert program.static_blockers(window) == oracle_table(insts, window)


def test_static_table_shares_equal_patterns():
    rng = random.Random(7)
    program = Program(core=0)
    for _ in range(200):
        program.append(random_inst(rng))
    table = program.seal().static_blockers(8)
    shared = {}
    for lags in table:
        assert shared.setdefault(lags, lags) is lags


def test_static_table_allocation_budget():
    """The table retains (almost) nothing per instruction: one shared
    tuple per distinct lag pattern, and no footprint cache on the
    instructions — on the table path or the fast tier that consumes it."""
    config = small_chip().with_rob_size(8).with_fidelity("fast")
    chip = compile_network(build_model("vgg8"), config).program
    programs = list(chip.programs.values())
    n = chip.total_instructions
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        tables = [program.static_blockers(8) for program in programs]
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert all(table is not None for table in tables)
    assert grown <= 0.25 * n, f"{grown} blocks retained for {n} instructions"
    run_program(chip, config)
    assert not any(hasattr(inst, "_fp")
                   for program in programs for inst in program.instructions)


def test_static_blockers_not_cached_before_seal():
    """Regression: a table computed on an unsealed program was cached by
    window and served, stale and too short, after the program grew —
    ``oldest_conflict`` then raised IndexError."""
    program = Program(core=0)
    for i in range(4):
        if i == 3:
            assert len(program.static_blockers(4)) == 3
        program.append(VectorInst(op="VMOV", src1=64 * i, src_bytes=64,
                                  dst=64 * (i + 1), dst_bytes=64, length=16))
    program.seal()
    table = program.static_blockers(4)
    assert len(table) == len(program) == 5
    assert program.static_blockers(4) is table  # sealed: cached
    rob = ReorderBuffer(Simulator(), 4, static_blockers=table)
    entries = [rob.allocate(inst, pc)
               for pc, inst in enumerate(program.instructions[:4])]
    assert rob.oldest_conflict(entries[3]) is entries[2]
