"""Design-space exploration: grid sweeps and Pareto fronts.

The framework's configurability argument (Fig. 1: users explore hardware
designs by editing the architecture configuration file) packaged as an
API: declare a grid over dotted configuration fields, sweep it, and
extract the latency/energy Pareto front.

>>> from repro.explore import explore
>>> ex = explore("mlp", small_chip(), {"core.rob_size": [1, 8]})
>>> len(ex.points)
2
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..config import ArchConfig, scaled, validate
from ..engine import Engine, JobFailed, JobSpec, resolve_engine
from ..runner import SimReport

__all__ = ["ExplorationPoint", "Exploration", "explore", "with_param",
           "pareto_front"]


def with_param(config: ArchConfig, path: str, value: Any) -> ArchConfig:
    """Copy of ``config`` with one dotted field replaced.

    ``"core.rob_size"`` addresses ``config.core.rob_size``; the special
    path ``"chip.cores"`` rescales the mesh to a square of that many
    cores.  A path that does not resolve raises :class:`ValueError`
    naming the full dotted path and the valid keys at the segment that
    failed, so a typo in a sweep grid dies loudly instead of as a bare
    ``KeyError`` three frames deep.
    """
    if path == "chip.cores":
        return scaled(config, cores=value)
    parts = path.split(".")

    def rebuild(node: Any, depth: int) -> Any:
        if not dataclasses.is_dataclass(node):
            where = ".".join(parts[:depth])
            raise ValueError(
                f"no configuration field {path!r}: {where!r} is a "
                f"{type(node).__name__} leaf with no sub-fields"
            )
        valid = sorted(f.name for f in dataclasses.fields(node))
        name = parts[depth]
        if name not in valid:
            where = ".".join(parts[:depth + 1])
            raise ValueError(
                f"no configuration field {path!r}: unknown segment "
                f"{name!r} at {where!r}; valid keys here: {valid}"
            )
        if depth == len(parts) - 1:
            return dataclasses.replace(node, **{name: value})
        return dataclasses.replace(
            node, **{name: rebuild(getattr(node, name), depth + 1)})

    return validate(rebuild(config, 0))


@dataclass(frozen=True)
class ExplorationPoint:
    """One evaluated design point."""

    params: tuple[tuple[str, Any], ...]
    report: SimReport

    @property
    def latency(self) -> int:
        return self.report.cycles

    @property
    def energy(self) -> float:
        return self.report.total_energy_pj

    def label(self) -> str:
        return ", ".join(f"{k.split('.')[-1]}={v}" for k, v in self.params)


def pareto_front(points: Iterable[ExplorationPoint],
                 ) -> list[ExplorationPoint]:
    """Non-dominated points for (minimize latency, minimize energy).

    Points tied on both objectives contribute exactly one representative
    — the first in input order — so a grid where many design points
    collapse to the same measurement yields a front without duplicates.
    Deterministic: dedup keeps input order, the front is sorted by
    (latency, energy), and after dedup those keys are unique.
    """
    unique: list[ExplorationPoint] = []
    seen: set[tuple] = set()
    for point in points:
        key = (point.latency, point.energy)
        if key not in seen:
            seen.add(key)
            unique.append(point)
    front = [
        candidate for candidate in unique
        if not any(
            (other.latency <= candidate.latency
             and other.energy <= candidate.energy
             and (other.latency < candidate.latency
                  or other.energy < candidate.energy))
            for other in unique
        )
    ]
    front.sort(key=lambda p: (p.latency, p.energy))
    return front


@dataclass
class Exploration:
    """Results of a grid sweep."""

    network: str
    points: list[ExplorationPoint] = field(default_factory=list)
    failures: list[tuple[tuple[tuple[str, Any], ...], str]] = field(
        default_factory=list)

    def pareto(self) -> list[ExplorationPoint]:
        return pareto_front(self.points)

    def best_latency(self) -> ExplorationPoint:
        return min(self.points, key=lambda p: p.latency)

    def best_energy(self) -> ExplorationPoint:
        return min(self.points, key=lambda p: p.energy)

    def table(self) -> str:
        """Aligned text table of every evaluated point."""
        lines = [f"{'design point':<44}{'cycles':>14}{'energy (uJ)':>14}"
                 f"{'pareto':>8}"]
        front = set(id(p) for p in self.pareto())
        for point in self.points:
            lines.append(
                f"{point.label():<44}{point.latency:>14,}"
                f"{point.energy / 1e6:>14.2f}"
                f"{'  *' if id(point) in front else '':>8}"
            )
        for params, message in self.failures:
            label = ", ".join(f"{k.split('.')[-1]}={v}" for k, v in params)
            lines.append(f"{label:<44}  failed: {message[:40]}")
        return "\n".join(lines)


def explore(network: str, base_config: ArchConfig,
            space: dict[str, list], *,
            mapping: str | None = None,
            workers: int | None = 1,
            engine: Engine | None = None) -> Exploration:
    """Sweep the cartesian grid of ``space`` and simulate every point.

    Design points whose configuration cannot host the network (capacity
    exhausted) are recorded under ``failures`` instead of aborting the
    sweep.  ``workers > 1`` simulates the grid on the engine's persistent
    worker pool (``None`` = all CPUs); point order and results match the
    serial run.  Pass ``engine`` to reuse a session's warm caches across
    explorations.
    """
    exploration = Exploration(network=network if isinstance(network, str)
                              else network.name)
    names = list(space)
    grid: list[tuple[tuple, ArchConfig]] = []
    for combo in itertools.product(*(space[name] for name in names)):
        params = tuple(zip(names, combo))
        config = base_config
        try:
            for path, value in params:
                config = with_param(config, path, value)
        except Exception as exc:
            exploration.failures.append((params, _first_line(exc)))
            continue
        grid.append((params, config))

    jobs = [JobSpec(network, config, mapping=mapping)
            for _, config in grid]
    outcomes = resolve_engine(engine).map(jobs, workers=workers,
                                          errors="capture")
    for (params, _), outcome in zip(grid, outcomes):
        if isinstance(outcome, JobFailed):
            exploration.failures.append((params, outcome.message))
        else:
            exploration.points.append(ExplorationPoint(params=params,
                                                       report=outcome))
    return exploration


def _first_line(exc: Exception) -> str:
    """First line of an exception message, falling back to its type name.

    Delegates to the engine's failure-record truncation so grid-
    construction failures read identically to simulation failures.
    """
    from ..engine.pool import job_failure
    return job_failure(exc).message
