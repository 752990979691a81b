"""Output checks run after the timed passes (untimed themselves).

Every check marks the ops it condemns via :meth:`Outcome.fail`, so a
failed check shows up in ``failed_share`` and removes the op's latency
sample.  Per-report checks (``cycles > 0``, retired == program total)
run inline in the drivers; the ones here need a second computation.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.arch import run_program
from repro.compiler import compile_network
from repro.engine import Engine
from repro.graph import with_kv_extent

from .tracing import relative_error_pct, resolve_config
from .workloads import Outcome

__all__ = ["FAST_ERROR_CAP_PCT", "check_repeatable", "check_fast_fidelity",
           "check_decode_steps", "check_served"]

#: the fidelity gate of tools/check_fidelity.py.
FAST_ERROR_CAP_PCT = 2.0


def _first_by_key(outcomes: list[Outcome]) -> dict[str, Outcome]:
    first: dict[str, Outcome] = {}
    for outcome in outcomes:
        if outcome.view is not None:
            first.setdefault(outcome.job.key, outcome)
    return first


def check_repeatable(outcomes: list[Outcome]) -> None:
    """The same spec yields identical cycles in every pass."""
    first = _first_by_key(outcomes)
    for outcome in outcomes:
        if outcome.view is None:
            continue
        expected = first[outcome.job.key].view["cycles"]
        if outcome.view["cycles"] != expected:
            outcome.fail(f"cycles {outcome.view['cycles']} differ from "
                         f"{expected} reported for the same spec earlier")


def check_fast_fidelity(engine: Engine, outcomes: list[Outcome]) -> float:
    """Each fast job against an untimed cycle-accurate run of its spec.

    Returns the workload's ``fast_vs_cycle_err_pct`` (0 without fast
    jobs); a job beyond the 2% gate fails every op of its class.
    """
    worst = 0.0
    for key, outcome in _first_by_key(outcomes).items():
        if outcome.view["fidelity"] != "fast":
            continue
        exact = engine.run(replace(outcome.job.spec, fidelity="cycle",
                                   tag=None))
        error = relative_error_pct(outcome.view["cycles"], exact.cycles)
        worst = max(worst, error)
        if error > FAST_ERROR_CAP_PCT:
            for other in outcomes:
                if other.job.key == key:
                    other.fail(f"fast cycles {outcome.view['cycles']} off "
                               f"cycle-accurate {exact.cycles} by "
                               f"{error:.3f}% > {FAST_ERROR_CAP_PCT}%")
    return worst


def check_decode_steps(engine: Engine, outcomes: list[Outcome], seed: int,
                       samples: int = 3) -> None:
    """Sampled decode steps equal a from-scratch compile at that extent.

    The template path (``StepTemplate.resolve``) must be exact: the step's
    cycles are compared with ``compile_network(with_kv_extent(graph,
    extent))`` run at the same fidelity.
    """
    first = list(_first_by_key(outcomes).items())
    rng = random.Random(f"{seed}/decode-steps")
    for key, outcome in rng.sample(first, min(samples, len(first))):
        spec = outcome.job.spec
        step = rng.randrange(spec.decode_steps)
        graph = engine.resolve_network(spec.network)
        config = resolve_config(spec, engine.config)
        scratch = compile_network(
            with_kv_extent(graph, spec.kv_tokens + step), config)
        cycles = run_program(scratch.program, config).cycles
        got = outcome.view["step_cycles"][step]
        if got != cycles:
            for other in outcomes:
                if other.job.key == key:
                    other.fail(f"decode step {step} (extent "
                               f"{spec.kv_tokens + step}): template "
                               f"{got} != from-scratch {cycles} cycles")


def check_served(engine: Engine, lanes: list[list[Outcome]]) -> int:
    """Reports fetched over HTTP equal an in-process run; repeats dedupe.

    ``lanes`` are the per-client outcome lists of one pass, in submission
    order.  Returns the number of repeat submissions the store answered
    with 200 (``serve.dedupe_hits``).
    """
    dedupe_hits = 0
    local: dict[str, object] = {}
    for lane in lanes:
        for outcome in lane:
            if outcome.view is None:
                continue
            job = outcome.job
            if job.key not in local:
                local[job.key] = engine.run(replace(job.spec, tag=None))
            mine = local[job.key]
            theirs = outcome.view
            if (theirs["cycles"], theirs["instructions"]) != (
                    mine.cycles, mine.instructions) \
                    or theirs["energy_pj"] != sum(mine.energy_pj.values()):
                outcome.fail("HTTP report differs from in-process "
                             "Engine.run on cycles/instructions/energy_pj")
            if job.repeat_of is None:
                if outcome.post_status != 201:
                    outcome.fail(f"first submission answered "
                                 f"{outcome.post_status}, expected 201")
                continue
            original = lane[job.repeat_of]
            if outcome.post_status != 200:
                outcome.fail(f"repeat submission answered "
                             f"{outcome.post_status}, expected 200")
            elif original.view is None or theirs != original.view:
                outcome.fail("repeat submission did not return the "
                             "stored report")
            else:
                dedupe_hits += 1
    return dedupe_hits
