"""Differential test of ``verify_program``'s one-pass stream check.

``isa/verify.py::_check_stream`` checks each core's stream in one
class-dispatched pass over plain fields and builds a message only when a
check fails.  The oracle below is the per-instruction loop it replaced
(every instruction's footprint tuples and ``where`` string built up front,
the HALT scan separate); for compiled lenet5 / vgg8 / gpt_tiny programs
mutated one field at a time, both must reject with the same
``VerificationError`` text.
"""

import dataclasses
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.compiler import compile_network
from repro.config import small_chip
from repro.isa import (
    MvmInst,
    ScalarInst,
    TransferInst,
    VectorInst,
    VerificationError,
    verify_program,
)
from repro.isa import verify as verify_mod
from repro.isa.verify import N_REGISTERS
from repro.models import build_model

CONFIG = small_chip()
MEM = CONFIG.core.local_memory_bytes
N_CORES = CONFIG.chip.n_cores
NETWORKS = ("lenet5", "vgg8", "gpt_tiny")


def _oracle_check_stream(errors, prefix, program, chip, mem_limit, n_cores):
    """The per-instruction loop ``_check_stream`` replaced, kept verbatim."""
    n = len(program.instructions)
    halts = [i for i, inst in enumerate(program)
             if isinstance(inst, ScalarInst) and inst.op == "HALT"]
    if not halts:
        errors.append(f"{prefix}: no HALT")
    elif halts[0] != n - 1:
        errors.append(f"{prefix}: HALT at {halts[0]} is not the last instruction")

    groups = program.groups
    for i, inst in enumerate(program):
        where = f"{prefix} inst {i}"
        for start, end in (*inst.reads_mem(), *inst.writes_mem()):
            if start < 0 or end > mem_limit:
                errors.append(
                    f"{where}: local-memory range [{start},{end}) outside "
                    f"0..{mem_limit}"
                )
            if start >= end:
                errors.append(f"{where}: empty/negative memory range [{start},{end})")
        if isinstance(inst, MvmInst):
            if groups is None:
                errors.append(f"{where}: MVM but core has no group table")
            else:
                try:
                    groups.get(inst.group)
                except Exception:
                    errors.append(f"{where}: undefined group {inst.group}")
            if inst.count < 1:
                errors.append(f"{where}: MVM count must be >= 1, got {inst.count}")
        elif isinstance(inst, VectorInst):
            if inst.length < 1:
                errors.append(f"{where}: vector length must be >= 1")
            if inst.n_sources == 2 and inst.src2_bytes < 0:
                errors.append(f"{where}: negative src2_bytes")
            if inst.n_sources < 2 and inst.src2_bytes:
                errors.append(
                    f"{where}: src2_bytes set on one-operand {inst.op}")
        elif isinstance(inst, TransferInst):
            if inst.op in ("SEND", "RECV") and not 0 <= inst.peer < n_cores:
                errors.append(f"{where}: peer {inst.peer} outside the chip")
            if inst.bytes < 1:
                errors.append(f"{where}: transfer of {inst.bytes} bytes")
            if inst.op in ("SEND", "RECV") and inst.flow not in chip.flows:
                errors.append(f"{where}: undeclared flow {inst.flow}")
        elif isinstance(inst, ScalarInst):
            regs = (*inst.reads_regs(), *inst.writes_regs())
            if any(not 0 <= r < N_REGISTERS for r in regs):
                errors.append(f"{where}: register out of range in {inst!r}")
            if inst.is_control and inst.op != "HALT" and not 0 <= inst.target < n:
                errors.append(f"{where}: branch target {inst.target} outside stream")


def _verdict(chip, *, oracle: bool) -> str | None:
    """The ``VerificationError`` text, or ``None`` when the chip passes."""
    with mock.patch.object(verify_mod, "_check_stream",
                           _oracle_check_stream if oracle
                           else verify_mod._check_stream):
        try:
            verify_program(chip, CONFIG)
        except VerificationError as exc:
            return str(exc)
    return None


#: one-field mutations per class: (label, applies to inst, {field: value}).
MUTATIONS = {
    MvmInst: [
        ("negative src", None, {"src": -1}),
        ("oversize src", None, {"src": MEM}),
        ("zero src_bytes", None, {"src_bytes": 0}),
        ("negative dst_bytes", None, {"dst_bytes": -8}),
        ("oversize dst_bytes", None, {"dst_bytes": MEM + 1}),
        ("unknown group", None, {"group": 10**6}),
        ("negative group", None, {"group": -1}),
        ("zero count", None, {"count": 0}),
        ("negative count", None, {"count": -3}),
    ],
    VectorInst: [
        ("negative src1", None, {"src1": -1}),
        ("oversize dst", None, {"dst": MEM}),
        ("zero src_bytes", None, {"src_bytes": 0}),
        ("negative dst_bytes", None, {"dst_bytes": -1}),
        ("zero length", None, {"length": 0}),
        ("src2_bytes on one-operand op", 1, {"src2_bytes": 64}),
        ("negative src2_bytes", 2, {"src2_bytes": -4}),
        ("negative src2", 2, {"src2": -16}),
        ("oversize src2", 2, {"src2": MEM}),
    ],
    TransferInst: [
        ("negative addr", None, {"addr": -1}),
        ("oversize addr", None, {"addr": MEM}),
        ("zero bytes", None, {"bytes": 0}),
        ("negative bytes", None, {"bytes": -2}),
        ("peer outside chip", "peer", {"peer": N_CORES}),
        ("negative peer", "peer", {"peer": -1}),
        ("undeclared flow", "peer", {"flow": 10**9}),
    ],
    ScalarInst: [
        ("HALT removed", "HALT", {"op": "NOP"}),
        ("branch out of stream", "HALT", {"op": "SJMP", "target": 10**6}),
        ("register out of range", "HALT", {"op": "LI", "rd": N_REGISTERS}),
        ("negative register", "HALT", {"op": "SADD", "rs2": -1}),
    ],
}


def _applies(inst, which) -> bool:
    if which is None:
        return True
    if which in (1, 2):
        return inst.n_sources == which
    if which == "peer":
        return inst.op in ("SEND", "RECV")
    return inst.op == which


@pytest.fixture(scope="module", params=NETWORKS)
def chip(request):
    return compile_network(build_model(request.param), CONFIG,
                           verify=False).program


def _targets(chip, cls, which):
    """``(core, position)`` of the first and last instruction of ``cls``
    the mutation applies to, over the whole chip (bounded so the test
    stays ~1 s)."""
    found = [(core, i) for core, program in sorted(chip.programs.items())
             for i, inst in enumerate(program.instructions)
             if type(inst) is cls and _applies(inst, which)]
    return found[:1] + found[-1:] if len(found) > 1 else found


def test_unmutated_programs_pass_both(chip):
    assert _verdict(chip, oracle=True) is None
    assert _verdict(chip, oracle=False) is None


@contextmanager
def _mutated(chip, *changes):
    """Apply ``(core, position, {field: value})`` changes, restoring the
    programs on exit.

    Instructions are values that codegen shares across positions, so each
    change puts a ``dataclasses.replace`` copy at its one position of a
    copied instruction list; assigning to the shared object would mutate
    every position that holds it."""
    saved = {core: chip.programs[core].instructions for core, _, _ in changes}
    try:
        for core, position, fields in changes:
            program = chip.programs[core]
            if program.instructions is saved[core]:
                program.instructions = list(saved[core])
            insts = program.instructions
            insts[position] = dataclasses.replace(insts[position], **fields)
        yield
    finally:
        for core, insts in saved.items():
            chip.programs[core].instructions = insts


@pytest.mark.parametrize("cls", list(MUTATIONS), ids=lambda c: c.__name__)
def test_every_mutation_rejected_with_the_oracle_text(chip, cls):
    checked = 0
    for label, which, fields in MUTATIONS[cls]:
        for core, position in _targets(chip, cls, which):
            with _mutated(chip, (core, position, fields)):
                expected = _verdict(chip, oracle=True)
                got = _verdict(chip, oracle=False)
            assert expected is not None, \
                f"oracle accepted {label} at core {core} inst {position}"
            assert got == expected, label
            checked += 1
    assert checked, f"no {cls.__name__} in the program to mutate"


#: a field per class that makes an instruction fail one check.
_BREAK = {MvmInst: ("count", -1), VectorInst: ("length", -1),
          TransferInst: ("bytes", -1), ScalarInst: ("rd", N_REGISTERS)}


def test_two_mutations_keep_stream_order(chip):
    """Errors from two rejected instructions come out in stream order, after
    the stream-level HALT message."""
    core, program = max(chip.programs.items(), key=lambda kv: len(kv[1]))
    n = len(program)
    first, last = program.instructions[0], program.instructions[-2]
    with _mutated(chip, (core, 0, dict([_BREAK[type(first)]])),
                  (core, n - 2, dict([_BREAK[type(last)]])),
                  (core, n - 1, {"op": "NOP"})):
        expected = _verdict(chip, oracle=True)
        got = _verdict(chip, oracle=False)
    assert expected is not None and "no HALT" in expected
    assert got == expected
