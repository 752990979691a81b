"""A finished simulation is freed by reference counting.

``ChipModel.run`` closes its kernel (:meth:`repro.sim.Simulator.close`) on
every exit path, events and processes are their own wheel entries, and no
core or unit keeps a reference back to its chip or core.  So a run leaves
no reference cycle behind: the cyclic collector finds nothing after
``run_program``, at either fidelity, on success and on ``DeadlockError``
alike.  Every decode step builds a fresh chip, so cyclic garbage there was
a quarter of the decode workload's wall time (DESIGN.md "A finished run is
freed by reference counting").

The collector is switched off and set to ``DEBUG_SAVEALL`` here, in the
test only; ``src/`` sets no collector knob (``tests/test_layering.py``).
"""

from __future__ import annotations

import dataclasses
import gc
from collections import Counter

import pytest

from _arch_workload import WORKLOADS
from repro.arch import run_program
from repro.compiler import compile_network, compile_step_template
from repro.config import small_chip, tiny_chip
from repro.isa import ChipProgram, FlowInfo, GroupTable, Program, TransferInst
from repro.models import build_model
from repro.sim import AnyOf, DeadlockError, Event, Simulator

FIDELITIES = ("cycle", "fast")


def _cyclic_garbage(run) -> tuple[int, list]:
    """Objects the cyclic collector finds unreachable after ``run()``,
    and the commonest of their types (for the failure message).  One
    untimed ``run()`` first, so lazy imports and per-program caches are
    in place and reachable."""
    run()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage).most_common(6)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found, kinds


def _assert_freed(run) -> None:
    found, kinds = _cyclic_garbage(run)
    assert found == 0, f"{found} cyclic objects left, commonest: {kinds}"


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("rob_size", [1, 8])
@pytest.mark.parametrize("model", ["lenet5", "vgg8"])
def test_zoo_run_leaves_no_cyclic_garbage(model, rob_size, fidelity):
    config = small_chip(rob_size=rob_size).with_fidelity(fidelity)
    program = compile_network(build_model(model), config).program
    _assert_freed(lambda: run_program(program, config))


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("shards", [None, 2])
def test_decode_step_leaves_no_cyclic_garbage(shards, fidelity):
    config = small_chip().with_fidelity(fidelity)
    if shards is not None:
        config = config.replaced(compiler=dataclasses.replace(
            config.compiler, attention_shards=shards))
    step = compile_step_template(build_model("gpt_tiny"), config).resolve(9)
    _assert_freed(lambda: run_program(step, config))


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_hand_built_run_leaves_no_cyclic_garbage(workload, fidelity):
    """Branchy control flow (the fast chip falls back to the cycle core),
    shared-ADC MVM children, credit stalls, link and port contention, all
    with the completion trace on."""
    model = WORKLOADS[workload]()
    config = model.config.with_fidelity(fidelity)
    _assert_freed(lambda: run_program(model.program, config))


def _expect_deadlock(program, config, **kwargs):
    def run():
        try:
            run_program(program, config, **kwargs)
        except DeadlockError:
            return
        raise AssertionError("the run was expected to deadlock")
    return run


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_max_cycles_stop_leaves_no_cyclic_garbage(fidelity):
    """Stopped mid-flight: every process is still blocked or scheduled
    when the diagnosis is built, and released after it."""
    config = small_chip().with_fidelity(fidelity)
    program = compile_network(build_model("vgg8"), config).program
    _assert_freed(_expect_deadlock(program, config, max_cycles=20_000))


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_protocol_deadlock_leaves_no_cyclic_garbage(fidelity):
    """The wheel drains with a RECV whose sender does not exist."""
    chip = ChipProgram(network="broken")
    receiver = Program(core=1, groups=GroupTable(core=1))
    receiver.append(TransferInst(op="RECV", peer=0, addr=0, bytes=128,
                                 flow=0, seq=0))
    chip.programs[1] = receiver.seal()
    chip.flows[0] = FlowInfo(flow_id=0, src_core=0, dst_core=1, layer="l",
                             n_messages=1, bytes_per_message=128)
    config = tiny_chip().with_fidelity(fidelity)
    _assert_freed(_expect_deadlock(chip, config))


def test_results_stay_readable_after_release():
    """Release drops kernel state only: registers, counters and the
    model's own tables are read after the run as before."""
    model = WORKLOADS["branchy"]()
    raw = model.run()
    core = model.cores[0]
    assert core.regs[4] > 0 and core.halt_time == raw.cycles
    assert core.rob.retired_count == core.issued > 0
    assert model.sim.now == raw.cycles and model.sim.pending == 0
    assert raw.trace == model.trace.events


class TestSimulatorClose:
    def test_close_releases_blocked_processes(self):
        sim = Simulator()
        never = Event(sim, "never")
        both = [Event(sim, "a"), Event(sim, "b")]

        def waiter(cond):
            yield cond

        def sleeper():
            yield 1_000

        single = sim.spawn(waiter(never))
        multi = sim.spawn(waiter(AnyOf(*both)))
        timer = sim.spawn(sleeper())
        sim.run(until=10)
        sim.close()
        assert never._waiters == {}
        assert both[0]._waiters == {} and both[1]._waiters == {}
        assert all(p.done for p in (single, multi, timer))
        assert single.gen.gi_frame is None and timer.gen.gi_frame is None
        assert sim.pending == 0 and not sim._live_processes
        assert sim.now == 10

    def test_close_drops_unstarted_and_scheduled_entries(self):
        sim = Simulator()
        ev = Event(sim, "later")
        ev.notify(500)
        sim.call_after(3, lambda _arg: None)

        def body():
            yield ev

        proc = sim.spawn(body())  # never stepped
        sim.close()
        assert sim.pending == 0
        assert proc.done and proc.gen.gi_frame is None
