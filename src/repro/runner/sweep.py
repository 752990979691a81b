"""The evaluation loops behind Figs. 3, 4 and 5.

Each helper builds a list of :class:`~repro.engine.JobSpec` points and
hands it to :meth:`Engine.map <repro.engine.Engine.map>` — on the
process-wide default engine, or on one passed as ``engine=``.  Results
come back in job order and are identical whether they run serially or on
the engine's persistent worker pool (each simulation is a deterministic
pure function of its job).  Every worker carries its own compile cache
that survives *across* calls, so repeated-configuration points — e.g.
the ROB sweep, whose compiled program is independent of ROB capacity —
skip recompilation even between back-to-back sweeps.  The pool persists
after a call; ``repro.engine.default_engine().close()`` releases the
default engine's workers early (otherwise they go at interpreter exit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baseline import run_baseline
from ..config import ArchConfig, mnsim_like_chip, paper_chip
from ..engine.spec import JobSpec
from ..graph import Graph
from .api import _engine
from .results import SimReport

__all__ = [
    "MappingComparison",
    "RobSweep",
    "BaselineComparison",
    "compare_mappings",
    "sweep_rob",
    "compare_with_baseline",
]


@dataclass
class MappingComparison:
    """Fig. 3 data: one network, both mapping policies."""

    network: str
    utilization: SimReport
    performance: SimReport

    @property
    def latency_ratio(self) -> float:
        """performance-first latency / utilization-first latency."""
        return self.performance.cycles / self.utilization.cycles

    @property
    def energy_ratio(self) -> float:
        return (self.performance.total_energy_pj
                / self.utilization.total_energy_pj)


def compare_mappings(network: str | Graph, config: ArchConfig | None = None, *,
                     rob_size: int = 1,
                     workers: int | None = 1,
                     fidelity: str | None = None,
                     engine=None) -> MappingComparison:
    """Run both mapping policies (paper setting: ROB size 1).

    ``fidelity`` overrides the execution fidelity of both runs
    (``"cycle"`` or ``"fast"``; ``None`` keeps the engine/config
    default) — the comparison itself is mapping-to-mapping either way.
    """
    config = (config or paper_chip()).with_rob_size(rob_size)
    utilization, performance = _engine(engine).map(
        [JobSpec(network, config, mapping="utilization_first",
                 fidelity=fidelity),
         JobSpec(network, config, mapping="performance_first",
                 fidelity=fidelity)],
        workers=workers)
    return MappingComparison(
        network=network if isinstance(network, str) else network.name,
        utilization=utilization,
        performance=performance,
    )


@dataclass
class RobSweep:
    """Fig. 4 data: one network across ROB capacities."""

    network: str
    reports: dict[int, SimReport] = field(default_factory=dict)

    def normalized_latency(self) -> dict[int, float]:
        """Latency normalized to the smallest ROB size."""
        base = self.reports[min(self.reports)].cycles
        return {size: r.cycles / base for size, r in sorted(self.reports.items())}


def sweep_rob(network: str | Graph, config: ArchConfig | None = None, *,
              sizes: tuple[int, ...] = (1, 4, 8, 12, 16),
              workers: int | None = 1,
              fidelity: str | None = None,
              engine=None) -> RobSweep:
    """Simulate across ROB sizes (performance-first, as in Fig. 4).

    The compiled program is independent of ROB capacity, so with the
    compile cache on (the default) the network is compiled once and only
    re-simulated per size.  ``fidelity`` overrides the execution
    fidelity of every point (``None``: engine/config default).
    """
    config = config or paper_chip()
    reports = _engine(engine).map(
        [JobSpec(network, config, rob_size=size, fidelity=fidelity)
         for size in sizes],
        workers=workers)
    return RobSweep(network if isinstance(network, str) else network.name,
                    dict(zip(sizes, reports)))


@dataclass
class BaselineComparison:
    """Fig. 5 data: cycle-accurate vs MNSIM2.0-style on one network."""

    network: str
    ours: SimReport
    baseline_cycles: int
    baseline_comm_ratio: dict[str, float]

    @property
    def latency_vs_baseline(self) -> float:
        """Our latency normalized to the baseline's (paper's Fig. 5 axis)."""
        return self.ours.cycles / self.baseline_cycles


def compare_with_baseline(network: str | Graph,
                          config: ArchConfig | None = None, *,
                          workers: int | None = 1,
                          engine=None) -> BaselineComparison:
    """Run our simulator and the behaviour-level baseline on one network."""
    config = config or mnsim_like_chip()
    engine = _engine(engine)
    graph = engine.resolve_network(network)
    ours = engine.map([JobSpec(graph, config)], workers=workers)[0]
    base = run_baseline(graph, config)
    return BaselineComparison(
        network=graph.name,
        ours=ours,
        baseline_cycles=base.cycles,
        baseline_comm_ratio={layer: base.comm_ratio(layer)
                             for layer in base.layer_compute},
    )
