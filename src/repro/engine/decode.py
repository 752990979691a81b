"""Decode sessions: compile-once, step-many autoregressive serving.

A :class:`DecodeSession` drives one autoregressive request over the
engine: the network (which must contain ``kv_cache`` nodes) is compiled
**once** into an extent-parameterized
:class:`~repro.compiler.StepTemplate`, then every decode step resolves
and simulates the program at its own KV extent — zero compiler work per
step after the first (pinned by the engine's ``template_hits`` /
``template_misses`` counters).

:func:`aggregate_step_reports` folds per-step reports into one
:class:`~repro.runner.results.SimReport` whose ``meta["decode"]`` block
carries the per-step cycle counts and latencies —
:meth:`Engine.serve_mix <repro.engine.Engine.serve_mix>` and the
``pimsim decode`` CLI build their latency distributions from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..arch import run_program
from ..graph import Graph, kv_extent
from ..runner.results import SimReport
from .spec import JobSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Engine

__all__ = ["DecodeSession", "aggregate_step_reports"]


def aggregate_step_reports(reports: list[SimReport], *,
                           kv_tokens: int) -> SimReport:
    """Fold per-step decode reports into one request-level report.

    Cycles, energy, per-layer busy time, NoC traffic and instruction
    counts sum over the steps; placement-shaped fields (cores, per-core
    stats) come from the last step.  ``meta["decode"]`` records the step
    count, the starting KV extent and the per-step cycle/second series
    the serving-mix percentiles are computed from.
    """
    if not reports:
        raise ValueError("no step reports to aggregate")
    last = reports[-1]
    energy: dict[str, float] = {}
    layer_busy: dict[str, dict[str, int]] = {}
    noc: dict[str, int] = {}
    for rep in reports:
        for key, value in rep.energy_pj.items():
            energy[key] = energy.get(key, 0.0) + value
        for layer, busy in rep.layer_busy.items():
            units = layer_busy.setdefault(layer, {})
            for unit, cycles in busy.items():
                units[unit] = units.get(unit, 0) + cycles
        for key, value in rep.noc.items():
            if isinstance(value, (int, float)):
                noc[key] = noc.get(key, 0) + value
            else:  # non-additive diagnostics (hottest links): last step's
                noc[key] = value
    meta = dict(last.meta)
    if last.fidelity != "cycle":  # fast-only counters sum over the steps
        meta["analytic_runs"] = sum(rep.analytic_runs for rep in reports)
        meta["fallback_events"] = sum(rep.fallback_events for rep in reports)
    meta["decode"] = {
        "steps": len(reports),
        "kv_tokens": kv_tokens,
        "step_cycles": [rep.cycles for rep in reports],
        "step_seconds": [rep.seconds for rep in reports],
    }
    return SimReport(
        network=last.network,
        config_name=last.config_name,
        mapping=last.mapping,
        cycles=sum(rep.cycles for rep in reports),
        seconds=sum(rep.seconds for rep in reports),
        energy_pj=energy,
        layer_busy=layer_busy,
        per_core=last.per_core,
        noc=noc,
        instructions=sum(rep.instructions for rep in reports),
        cores_used=last.cores_used,
        meta=meta,
        vector_layer_cycles=last.vector_layer_cycles,
        fidelity=last.fidelity,
    )


class DecodeSession:
    """One autoregressive request: a warm template stepped over a
    growing KV cache.

        >>> with Engine(small_chip()) as engine:
        ...     session = engine.decode_session("gpt_tiny")
        ...     first = session.step()          # extent = built-in tokens
        ...     more = session.run(31)          # 31 further steps, 1 report

    Opened from a :class:`~repro.engine.JobSpec` (network, overrides and
    the starting ``kv_tokens``; :meth:`Engine.decode_session` builds one
    from keywords).  The session owns only cursor state (the next step's
    extent and the step history); the compiled template lives in — and
    is shared through — the engine's template cache, so two sessions
    over the same network and configuration compile nothing twice.
    """

    def __init__(self, engine: "Engine", spec: JobSpec) -> None:
        self.engine = engine
        self.graph, self.config = engine._resolve(spec)
        # the template refuses a network without kv_cache nodes
        self.template = engine._template(self.graph, self.config)
        #: KV extent the *next* step runs at.
        self.extent = spec.kv_tokens or kv_extent(self.graph)[0]
        self._max_cycles = spec.max_cycles
        self.steps_run = 0
        #: per-step (extent, cycles) history.
        self.history: list[tuple[int, int]] = []

    @property
    def remaining_capacity(self) -> int:
        """Steps left before the KV cache is full."""
        return self.template.capacity - self.extent + 1

    def step(self) -> SimReport:
        """Simulate one decode step at the current extent, then grow."""
        chip = self.template.resolve(self.extent)
        raw = run_program(chip, self.config, max_cycles=self._max_cycles)
        report = SimReport.from_raw(raw, self.config,
                                    chip.total_instructions)
        self.history.append((self.extent, report.cycles))
        self.extent += 1
        self.steps_run += 1
        return report

    def run(self, steps: int) -> SimReport:
        """Run ``steps`` decode steps; one aggregated report."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        start = self.extent
        reports = [self.step() for _ in range(steps)]
        return aggregate_step_reports(reports, kv_tokens=start)
