"""Kernel- and model-equivalence suite.

The scheduler was rewritten (a delta queue for same-cycle work and one
``(time, seq)`` timer heap, see ``repro/sim/kernel.py``) and the model
layer gained fast paths
(incremental ROB scoreboard + static blocker tables, per-entry ready
events, route-cached NoC, zero-frame unit issue); these tests pin the
observable semantics to the seed's, via golden traces recorded on the
pre-optimization implementations:

* seeded random kernel workloads mixing timed waits, AnyOf/AllOf, Fifo /
  Rendezvous / Resource traffic — the full wake-order trace, final
  time and pending count must match the seed recording bit-for-bit;
* architecture-level workloads (a branchy scalar program, a contended
  NoC/ADC/gmem mesh) whose *entire* observable record — cycles, per-core
  stats, registers, NoC totals and the per-instruction completion trace,
  including same-cycle ordering — must match the pre-fast-path recording
  (wake-order pinning, not just end-state pinning);
* one end-to-end compile+simulate (``vgg8`` on the small chip) whose
  cycles, per-category energy and NoC totals must match the seed run.

Also hosts regression tests for the waiter-bookkeeping rework (O(1)
cancellation, double-removal, duplicate events in AnyOf).
"""

import json
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _arch_workload import run_arch_workload
from _kernel_workload import run_workload
from repro.sim import AllOf, AnyOf, Event, Simulator

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_trace_matches_seed_kernel(seed):
    golden = json.loads((GOLDEN_DIR / f"kernel_trace_seed{seed}.json").read_text())
    got = json.loads(json.dumps(run_workload(seed)))
    assert got["now"] == golden["now"]
    assert got["pending"] == golden["pending"]
    assert got["trace"] == golden["trace"]


@pytest.mark.parametrize("name", ["branchy", "contended"])
def test_arch_workload_trace_matches_seed_models(name):
    """Model-layer fast paths are wake-order-equivalent to the seed
    models: every field of the record — including the completion trace's
    same-cycle event ordering — matches the golden recorded before the
    scoreboard/NoC/zero-frame rework.  Energy sums are floats whose
    accumulation order may legitimately differ within a cycle, so they
    get a tolerance; everything else is exact."""
    golden = json.loads((GOLDEN_DIR / f"arch_trace_{name}.json").read_text())
    got = json.loads(json.dumps(run_arch_workload(name)))
    for category, pj in golden["energy_pj"].items():
        assert got["energy_pj"][category] == pytest.approx(pj, rel=1e-12), category
    for key in golden:
        if key == "energy_pj":
            continue
        assert got[key] == golden[key], f"{name}: {key} diverged"


def test_simulate_vgg8_matches_seed_kernel():
    from repro import simulate, small_chip

    golden = json.loads((GOLDEN_DIR / "simulate_vgg8_small.json").read_text())
    report = simulate("vgg8", small_chip())
    assert report.cycles == golden["cycles"]
    assert report.instructions == golden["instructions"]
    assert report.cores_used == golden["cores_used"]
    assert report.total_energy_pj == pytest.approx(
        golden["total_energy_pj"], rel=1e-12)
    for category, pj in golden["energy_pj"].items():
        assert report.energy_pj[category] == pytest.approx(pj, rel=1e-12)
    for key, value in golden["noc"].items():
        assert report.noc[key] == value


class TestWaiterBookkeeping:
    """Regressions for the O(1) waiter-cancellation rework."""

    def test_anyof_cancels_sibling_waits(self):
        """After an AnyOf wake the process is deregistered everywhere."""
        sim = Simulator()
        a, b = Event(sim, "a"), Event(sim, "b")
        wakes = []

        def waiter():
            cause = yield AnyOf(a, b)
            wakes.append(cause.name)
            yield 1_000  # still alive; must NOT be woken by b

        sim.spawn(waiter())
        a.notify(delay=1)
        b.notify(delay=2)
        sim.run()
        assert wakes == ["a"]
        assert not a._waiters and not b._waiters

    def test_allof_double_removal_is_clean(self):
        """AllOf cleanup removes already-fired members without error.

        The seed kernel swallowed the resulting ValueError from
        ``list.remove``; removal is now an O(1) defined no-op, including
        under ``python -O``.
        """
        sim = Simulator()
        a, b, c = (Event(sim, n) for n in "abc")
        done = []

        def waiter():
            yield AllOf(a, b, c)
            done.append(sim.now)

        proc = sim.spawn(waiter())
        a.notify(delay=1)
        b.notify(delay=2)
        c.notify(delay=3)
        sim.run()
        assert done == [3]
        # explicit double removal is a no-op, not a swallowed error
        a._remove_waiter(proc)
        a._remove_waiter(proc)
        assert proc.done

    def test_anyof_duplicate_event_wakes_once(self):
        """AnyOf(e, e) must wake the process once per notification.

        The seed kernel's list-based waiters registered the process twice
        and double-stepped it; the dict-based set registers it once.
        """
        sim = Simulator()
        ev = Event(sim, "e")
        log = []

        def waiter():
            cause = yield AnyOf(ev, ev)
            log.append((sim.now, cause.name))
            yield 5
            log.append((sim.now, "timed"))

        sim.spawn(waiter())
        ev.notify(delay=2)
        sim.run()
        assert log == [(2, "e"), (7, "timed")]

    def test_event_fired_at_updates(self):
        sim = Simulator()
        ev = Event(sim)
        assert ev.fired_at is None
        ev.notify(delay=4)
        sim.run(detect_deadlock=False)
        assert ev.fired_at == 4


class TestSchedulerStructures:
    """Orderings across the delay classes 0, 1-127 and >= 128."""

    def test_fifo_order_across_delay_classes(self):
        """Same fire-cycle callbacks run in scheduling order regardless of
        the delay class (0, 1-127, >= 128) they were scheduled with."""
        sim = Simulator()
        seen = []
        target = 300  # delay >= 128 first, then 1-127, then 0 at T

        def late_schedulers():
            yield target - 5
            sim.call_after(5, lambda _: seen.append("near"))
            yield 5
            sim.call_after(0, lambda _: seen.append("delta"))

        sim.call_after(target, lambda _: seen.append("far"))
        sim.spawn(late_schedulers())
        sim.run()
        assert seen == ["far", "near", "delta"]

    def test_long_and_short_delays_interleave(self):
        sim = Simulator()
        seen = []
        for delay in (500, 3, 129, 128, 127, 1, 0, 64):
            sim.call_after(delay, lambda _, d=delay: seen.append(d))
        sim.run()
        assert seen == [0, 1, 3, 64, 127, 128, 129, 500]

    def test_near_wheel_wraparound(self):
        """A long run of equal 1-127 delays crossing many multiples of
        128 stays ordered."""
        sim = Simulator()
        seen = []

        def stepper():
            for _ in range(40):
                yield 97  # co-prime with 128
                seen.append(sim.now)

        sim.spawn(stepper())
        sim.run()
        assert seen == [97 * (i + 1) for i in range(40)]

    def test_pending_counts_all_structures(self):
        sim = Simulator()
        sim.call_after(0, lambda _: None)     # delay 0
        sim.call_after(5, lambda _: None)     # delay 1-127
        sim.call_after(1_000, lambda _: None)  # delay >= 128
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0

    def test_stop_preserves_unprocessed_entries(self):
        sim = Simulator()
        seen = []
        sim.call_after(1, lambda _: (seen.append("a"), sim.stop()))
        sim.call_after(1, lambda _: seen.append("b"))
        sim.call_after(200, lambda _: seen.append("far"))
        sim.run()
        assert seen == ["a"]
        assert sim.pending == 2
        sim.run()
        assert seen == ["a", "b", "far"]


    def test_call_after_delivers_arg_in_scheduling_order(self):
        """``call_after``/``call_at`` hand ``arg`` to ``fn(arg)`` in every
        delay class, and same-cycle entries run in scheduling order
        whichever class they were scheduled with."""
        sim = Simulator()
        seen = []
        record = seen.append
        for delay in (0, 5, 300):          # delay 0, 1-127, >= 128
            sim.call_after(delay, record, ("after", delay))
            sim.call_at(delay, record, ("at", delay))
        sim.call_after(300, record)        # arg defaults to None
        sim.run()
        assert seen == [("after", 0), ("at", 0), ("after", 5), ("at", 5),
                        ("after", 300), ("at", 300), None]


class TestClockRewind:
    """The clock never moves backwards."""

    def test_run_until_before_now_raises(self):
        from repro.sim import SimulationError

        sim = Simulator()
        sim.call_after(1000, lambda _: None)
        sim.run()
        assert sim.now == 1000
        sim.call_after(100, lambda _: None)
        with pytest.raises(SimulationError, match="already at 1000"):
            sim.run(until=500)
        assert sim.now == 1000
        assert sim.pending == 1
        sim.run()
        assert sim.now == 1100


class TestDelayValidation:
    def test_call_after_rejects_non_integer_delay(self):
        import pytest as _pytest
        from repro.sim import SimulationError

        sim = Simulator()
        with _pytest.raises(SimulationError, match="integer"):
            sim.call_after(2.5, lambda _: None)
        with _pytest.raises(SimulationError, match="integer"):
            sim.call_at(sim.now + 1.5, lambda _: None)

    def test_notify_rejects_non_integer_delay(self):
        import pytest as _pytest

        sim = Simulator()
        with _pytest.raises(ValueError, match="integer"):
            Event(sim).notify(1.5)


# -- nested random scheduling against a sorting reference ---------------------

@dataclass(frozen=True)
class _Node:
    """One scheduled callback: after ``delay`` cycles it records itself
    and schedules its ``children``.  A process node is spawned and waits
    with ``yield delay``; the others go through ``call_after``."""

    id: int
    process: bool
    delay: int
    children: tuple["_Node", ...]


#: delays 0 to 300 cross every delay class (0, 1-127, >= 128).
_SHAPES = st.recursive(
    st.tuples(st.booleans(), st.integers(0, 300), st.just(())),
    lambda kids: st.tuples(st.booleans(), st.integers(0, 300),
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=24)


def _number(shapes, ids):
    return tuple(_Node(next(ids), process, delay, _number(kids, ids))
                 for process, delay, kids in shapes)


@st.composite
def _programs(draw):
    """Root nodes, the id of the one node that calls ``stop()``, and the
    ``run(until=now + step)`` slices taken before running to the end."""
    ids = count()
    roots = _number(draw(st.lists(_SHAPES, min_size=1, max_size=6)), ids)
    stop_at = draw(st.integers(0, next(ids) - 1))
    steps = draw(st.lists(st.integers(0, 400), max_size=4))
    return roots, stop_at, steps


def _run_kernel(roots, stop_at, steps):
    """Firing order and ``(now, pending, fired)`` after every slice."""
    sim = Simulator()
    fired = []

    def fire(node):
        fired.append((sim.now, node.id))
        for child in node.children:
            schedule(child)
        if node.id == stop_at:
            sim.stop()

    def waiter(node):
        yield node.delay
        fire(node)

    def schedule(node):
        if node.process:
            sim.spawn(waiter(node))
        else:
            sim.call_after(node.delay, fire, node)

    for root in roots:
        schedule(root)
    slices = []
    for step in steps:
        sim.run(until=sim.now + step)
        slices.append((sim.now, sim.pending, len(fired)))
    while not slices or slices[-1][1]:
        sim.run()
        slices.append((sim.now, sim.pending, len(fired)))
    return fired, slices


def _run_reference(roots, stop_at, steps):
    """The same program on a list sorted by (fire time, scheduling
    order): a process node is a spawn step at delay 0 that schedules its
    own fire after ``delay``."""
    queue = []
    seq = count()
    fired = []
    now = 0

    def schedule(node, at):
        if node.process:
            queue.append((at, next(seq), "spawn", node))
        else:
            queue.append((at + node.delay, next(seq), "fire", node))

    def run(until=None):
        nonlocal now
        while queue:
            queue.sort(key=lambda entry: entry[:2])
            time, _, what, node = queue[0]
            if until is not None and time > until:
                now = until
                return
            del queue[0]
            now = time
            if what == "spawn":
                queue.append((now + node.delay, next(seq), "fire", node))
                continue
            fired.append((now, node.id))
            for child in node.children:
                schedule(child, now)
            if node.id == stop_at:
                return

    for root in roots:
        schedule(root, 0)
    slices = []
    for step in steps:
        run(until=now + step)
        slices.append((now, len(queue), len(fired)))
    while not slices or slices[-1][1]:
        run()
        slices.append((now, len(queue), len(fired)))
    return fired, slices


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_programs())
def test_nested_scheduling_matches_sorted_reference(program):
    """Callbacks that schedule callbacks, cut by ``run(until=)`` slices and
    one ``stop()``, fire in (fire time, scheduling order), and ``now`` and
    ``pending`` are exact after every slice."""
    assert _run_kernel(*program) == _run_reference(*program)
