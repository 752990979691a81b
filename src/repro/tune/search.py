"""Exhaustive design-space search over dotted configuration paths.

:class:`Tuner` searches a grid ``{dotted configuration path: values}``;
every point's configuration is built by :func:`~repro.config.with_param`.
The default grid is the four knobs a deployment can actually turn —
mapping policy, ROB capacity, attention shard count and shard-group
placement.  A search runs in three stages:

1. **Enumerate** every distinct point.  Before dedup, a point's two
   shard paths are normalised (and nothing else): shard counts are
   capped at the point's core count and collapse to 1 for a network
   with no shardable stage, and placements collapse to ``"distance"``
   at one shard.
2. **Measure** every point at ``fidelity="fast"`` through
   :meth:`Engine.as_completed <repro.engine.Engine.as_completed>` —
   pool-parallel with ``workers > 1``, and compiled through the
   engine's compile cache (ROB size and fidelity share one entry per
   structure).  A fast run costs about what any cheaper scorer would,
   and is the only approximation gated against the cycle model, so
   nothing is pruned unmeasured; bound a search by narrowing the grid.
3. **Re-verify** the ``top_k`` measured leaders at ``fidelity="cycle"``
   and measure both built-in mapping baselines at the base
   configuration, also at cycle fidelity.

:meth:`Tuner.explore` is the measurement stage on its own: every point
once at the configuration's fidelity, no re-verification and no
baselines; :meth:`TuneReport.pareto` extracts its latency/energy front.

Every measurement streams to a JSONL *journal* as it lands (same
crash-safe discipline as ``pimsim batch``): ``tune(journal=...,
resume=True)`` replays only the measurements the journal does not
already cover.  The result is a JSON-round-trippable
:class:`TuneReport`: the full measured table, the winning
:class:`~repro.config.ArchConfig` delta and the speedup against both
built-in mappings.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..compiler.frontend import build_pipeline
from ..config import SHARD_PLACEMENTS, ArchConfig, paper_chip, with_param
from ..engine import Engine, JobFailed, JobSpec, resolve_engine
from ..engine.journal import Journal
from .costmodel import OBJECTIVES, CostEstimate

__all__ = ["Candidate", "Tuner", "TuneEntry", "TuneReport"]

#: both built-in mapping policies — the tuner always covers (and
#: baselines against) the full set.
MAPPINGS = ("utilization_first", "performance_first")

#: the two paths a point is normalised on (module docstring, stage 1).
SHARDS = "compiler.attention_shards"
PLACEMENT = "compiler.shard_placement"

#: the grid searched when none is given.
DEFAULT_SPACE = {
    "compiler.mapping": MAPPINGS,
    "core.rob_size": (1, 4, 8, 16, 32),
    SHARDS: (1, 2, 4, 8),
    PLACEMENT: SHARD_PLACEMENTS,
}

#: how the default grid's paths render in a key; any other path renders
#: as ``leaf=value``.
_KEY_FORMATS = {"compiler.mapping": "{}", "core.rob_size": "rob{}",
                SHARDS: "shards{}", PLACEMENT: "{}"}

#: leaf name -> path of the default grid's knobs, the field names that
#: files written before the grid took configuration paths carry.
_LEGACY_FIELDS = {path.rpartition(".")[2]: path for path in _KEY_FORMATS}


@dataclass(frozen=True)
class Candidate:
    """One point of the design space: ``(dotted path, value)`` pairs in
    grid order."""

    params: tuple[tuple[str, Any], ...]

    def key(self) -> str:
        """Stable human-readable identity, e.g.
        ``performance_first/rob16/shards4/load_aware`` on the default
        grid, ``cores=16/rob8`` on ``chip.cores`` x ``core.rob_size``."""
        return "/".join(
            _KEY_FORMATS.get(path, path.rpartition(".")[2] + "={}")
            .format(value) for path, value in self.params)

    def to_dict(self) -> dict:
        return dict(self.params)

    @classmethod
    def from_dict(cls, data: dict) -> "Candidate":
        return cls(tuple((_LEGACY_FIELDS.get(name, name), value)
                         for name, value in data.items()))


@dataclass
class TuneEntry:
    """One candidate's row of the measured table."""

    candidate: Candidate
    #: fast-fidelity measurement ``{"cycles", "energy_pj", "fidelity"}``.
    fast: dict | None = None
    #: cycle-fidelity measurement: the top-k re-verification of a tune,
    #: or an exploration's one measurement at cycle fidelity.
    cycle: dict | None = None
    error: str | None = None

    @property
    def measured(self) -> dict | None:
        """Best available measurement (cycle wins over fast)."""
        return self.cycle if self.cycle is not None else self.fast

    def to_dict(self) -> dict:
        out: dict = {"candidate": self.candidate.to_dict()}
        for key in ("fast", "cycle", "error"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TuneEntry":
        # Files written before the search measured every candidate also
        # carry estimate / estimated_objective / pruned keys; ignored.
        return cls(candidate=Candidate.from_dict(data["candidate"]),
                   fast=data.get("fast"), cycle=data.get("cycle"),
                   error=data.get("error"))


@dataclass
class TuneReport:
    """Everything a tuning run decided, measured and concluded."""

    network: str
    objective: str
    entries: list[TuneEntry] = field(default_factory=list)
    #: mapping -> cycle-fidelity measurement at the base configuration.
    baselines: dict[str, dict] = field(default_factory=dict)
    winner: Candidate | None = None
    #: cycle-verified measurement of the winner.
    winner_measured: dict | None = None
    #: mapping -> baseline objective / winner objective (>1: tuner wins).
    speedups: dict[str, float] = field(default_factory=dict)
    #: dotted config path -> ``{"base": ..., "tuned": ...}``.
    config_delta: dict[str, dict] = field(default_factory=dict)
    #: measurements replayed from the journal instead of re-run.
    resumed: int = 0

    # -- derived -------------------------------------------------------------

    @property
    def considered(self) -> int:
        return len(self.entries)

    @property
    def evaluated(self) -> int:
        return sum(1 for e in self.entries
                   if e.measured is not None or e.error is not None)

    def pareto(self) -> list[TuneEntry]:
        """Measured entries no other measured entry beats on both cycles
        and energy.

        Entries tied on both contribute one representative — the first
        in entry order — so a grid where many points collapse to the same
        measurement yields a front without duplicates.  The front is
        sorted by (cycles, energy), which are unique after dedup.
        """
        unique: dict[tuple, TuneEntry] = {}
        for entry in self.entries:
            meas = entry.measured
            if meas is not None and entry.error is None:
                unique.setdefault((meas["cycles"], meas["energy_pj"]), entry)
        front: list[TuneEntry] = []
        least_energy = math.inf
        for (_, energy), entry in sorted(unique.items(),
                                         key=lambda item: item[0]):
            if energy < least_energy:  # nothing faster is as frugal
                front.append(entry)
                least_energy = energy
        return front

    def summary(self) -> str:
        lines = [f"tune {self.network} (objective={self.objective}): "
                 f"{self.considered} candidates, {self.evaluated} measured"
                 + (f", {self.resumed} resumed" if self.resumed else "")]
        width = max((len(e.candidate.key()) for e in self.entries),
                    default=10)
        for entry in sorted(
                self.entries,
                key=lambda e: (e.measured is None,
                               (e.measured or {}).get("cycles", 0))):
            meas = entry.measured
            if entry.error is not None:
                shown = f"FAILED: {entry.error}"
            elif meas is None:  # a pruned row of a pre-exhaustive report
                shown = "not measured"
            else:
                shown = (f"{meas['cycles']:>12,} cycles "
                         f"[{meas['fidelity']}]")
            lines.append(f"  {entry.candidate.key():<{width}}  {shown}")
        for mapping, meas in self.baselines.items():
            lines.append(f"  baseline {mapping:<{width - 9}} "
                         f"{meas['cycles']:>12,} cycles "
                         f"[{meas['fidelity']}]")
        if self.winner is not None:
            lines.append(f"winner: {self.winner.key()} = "
                         f"{self.winner_measured['cycles']:,} cycles")
            for mapping, speedup in self.speedups.items():
                lines.append(f"  {speedup:.2f}x vs {mapping}")
            for path, delta in self.config_delta.items():
                lines.append(f"  {path}: {delta['base']!r} -> "
                             f"{delta['tuned']!r}")
        return "\n".join(lines)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "objective": self.objective,
            "entries": [e.to_dict() for e in self.entries],
            "baselines": self.baselines,
            "winner": self.winner.to_dict() if self.winner else None,
            "winner_measured": self.winner_measured,
            "speedups": self.speedups,
            "config_delta": self.config_delta,
            "resumed": self.resumed,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_dict(cls, data: dict) -> "TuneReport":
        winner = data.get("winner")
        return cls(
            network=data["network"],
            objective=data["objective"],
            entries=[TuneEntry.from_dict(e) for e in data.get("entries", [])],
            baselines=data.get("baselines", {}),
            winner=Candidate.from_dict(winner) if winner else None,
            winner_measured=data.get("winner_measured"),
            speedups=data.get("speedups", {}),
            config_delta=data.get("config_delta", {}),
            resumed=data.get("resumed", 0),
        )

    @classmethod
    def from_json(cls, text: str) -> "TuneReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "TuneReport":
        return cls.from_json(Path(path).read_text())


# -- journal -----------------------------------------------------------------


def _read_tune_journal(path) -> dict:
    """Measurements already settled in a tune journal.

    The tune record grammar: ``{"key", "candidate", "fidelity",
    "report"|"error"}`` per candidate measurement, ``{"baseline",
    "report"}`` per baseline, ``{"summary": ...}`` trailers.  Returns
    ``{(candidate_key, fidelity): record}`` and ``{("baseline",
    mapping): record}``; everything else settles nothing.
    """
    done: dict = {}
    for record, _span in Journal.replay(path):
        if "baseline" in record and "report" in record:
            done[("baseline", record["baseline"])] = record
        elif "key" in record and "fidelity" in record \
                and ("report" in record or "error" in record):
            done[(record["key"], record["fidelity"])] = record
    return done


# -- the tuner ---------------------------------------------------------------


class Tuner:
    """Load-aware exhaustive autotuner (see module docstring).

    Parameters
    ----------
    network:
        Zoo model name or in-memory :class:`~repro.graph.Graph`.
    config:
        Base architecture configuration (``None``: the engine's
        default).  Every point is a copy of it; baselines and the
        winner's delta are reported against it.
    space:
        The grid, ``{dotted configuration path: values}`` (``None``:
        :data:`DEFAULT_SPACE`).  Every point of it is measured, so it
        bounds the search.
    objective:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    top_k:
        How many measured leaders are re-verified at cycle fidelity.
    engine / workers:
        Where and how wide measurements run.
    """

    def __init__(self, network, config: ArchConfig | None = None, *,
                 space: dict | None = None, objective: str = "latency",
                 top_k: int = 2, engine: Engine | None = None,
                 workers: int | None = 1):
        if objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}")
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.network = network
        self.config = config
        self.space = {path: tuple(values) for path, values in
                      (DEFAULT_SPACE if space is None else space).items()}
        self.objective = objective
        self.top_k = top_k
        self.engine = engine
        self.workers = workers

    # -- candidate generation ------------------------------------------------

    def candidates(self, base: ArchConfig, shardable: bool,
                   ) -> dict[Candidate, ArchConfig]:
        """The grid's distinct points, normalised, each with its
        configuration.

        An unknown path raises :func:`~repro.config.with_param`'s
        :class:`ValueError`, an invalid value its
        :class:`~repro.config.ConfigError`.  The shard count is applied
        last: it is capped at the core count the other paths built.
        """
        points: dict[Candidate, ArchConfig] = {}
        for combo in itertools.product(*self.space.values()):
            params = dict(zip(self.space, combo))
            config = base
            for path, value in params.items():
                if path != SHARDS:
                    config = with_param(config, path, value)
            shards = min(params.get(SHARDS, config.compiler.attention_shards),
                         config.chip.n_cores) if shardable else 1
            if SHARDS in params:
                params[SHARDS] = shards
                config = with_param(config, SHARDS, shards)
            if PLACEMENT in params and shards == 1:
                params[PLACEMENT] = "distance"
                config = with_param(config, PLACEMENT, "distance")
            points.setdefault(Candidate(tuple(params.items())), config)
        return points

    def _grid(self, engine: Engine) -> tuple[ArchConfig,
                                             dict[Candidate, ArchConfig]]:
        """The base configuration and :meth:`candidates` for it."""
        base = self.config or engine.config or paper_chip()
        shardable = (SHARDS in self.space or PLACEMENT in self.space) and any(
            stage.kind == "aux" and stage.shardable
            for stage in build_pipeline(
                engine.resolve_network(self.network),
                operator_fusion=base.compiler.operator_fusion))
        return base, self.candidates(base, shardable)

    # -- measurement helpers -------------------------------------------------

    def _objective(self, measured: dict) -> float:
        """A measurement record's scalar under this tuner's objective."""
        return CostEstimate(measured["cycles"], measured["energy_pj"]
                            ).objective(self.objective)

    @staticmethod
    def _measurement(report) -> dict:
        return {"cycles": report.cycles,
                "energy_pj": report.total_energy_pj,
                "fidelity": report.fidelity}

    def _measure(self, entries: list[TuneEntry], configs: dict,
                 fidelity: str | None, engine: Engine, write,
                 seen: dict) -> int:
        """Fill ``entry.fast`` or ``entry.cycle`` (whichever fidelity ran)
        for every entry, replaying journaled measurements and streaming
        fresh ones.  Returns how many came from the journal."""
        resumed = 0
        to_run: list[TuneEntry] = []
        for entry in entries:
            record = seen.get((entry.candidate.key(), fidelity))
            if record is None:
                to_run.append(entry)
                continue
            resumed += 1
            if "report" in record:
                setattr(entry, fidelity, record["report"])
            else:
                entry.error = record["error"]
        specs = [JobSpec(self.network, config=configs[e.candidate],
                         fidelity=fidelity, tag=e.candidate.key())
                 for e in to_run]
        for index, outcome in engine.as_completed(
                specs, workers=self.workers, errors="capture"):
            entry = to_run[index]
            record: dict = {"key": entry.candidate.key(),
                            "candidate": entry.candidate.to_dict(),
                            "fidelity": fidelity}
            if isinstance(outcome, JobFailed):
                entry.error = f"{outcome.kind}: {outcome.message}"
                record["error"] = entry.error
            else:
                record["report"] = self._measurement(outcome)
                setattr(entry, outcome.fidelity, record["report"])
            write(record)
        return resumed

    def _network_name(self) -> str:
        return self.network if isinstance(self.network, str) \
            else getattr(self.network, "name", "graph")

    # -- the runs ------------------------------------------------------------

    def explore(self) -> TuneReport:
        """Measure every point once at the configuration's fidelity.

        The search's measurement stage on its own: no cycle
        re-verification, no baselines, no journal.  A point that fails
        to compile or simulate is an errored entry.
        """
        engine = resolve_engine(self.engine)
        _, points = self._grid(engine)
        entries = [TuneEntry(candidate=cand) for cand in points]
        self._measure(entries, points, None, engine, lambda record: None, {})
        return TuneReport(network=self._network_name(),
                          objective=self.objective, entries=entries)

    def tune(self, *, journal=None, resume: bool = False) -> TuneReport:
        """Run the search; returns the full :class:`TuneReport`.

        ``journal``: JSONL path streamed as measurements land.
        ``resume=True`` replays measurements already in the journal.
        """
        seen = _read_tune_journal(journal) if (resume and journal) else {}
        if journal is None:
            return self._search(seen, lambda record: None)
        sink = Journal(journal, fsync=False)
        try:
            return self._search(seen, sink.append)
        finally:
            sink.close()

    def _search(self, seen: dict, write) -> TuneReport:
        """:meth:`tune` proper: ``seen`` are the journaled measurements
        to replay, ``write(record)`` journals a fresh one."""
        engine = resolve_engine(self.engine)
        base, points = self._grid(engine)

        # 1-2. enumerate, measure every candidate at fast fidelity.
        entries = [TuneEntry(candidate=cand) for cand in points]
        resumed = self._measure(entries, points, "fast", engine, write, seen)

        # 3. cycle-verify the measured leaders.
        measured = [e for e in entries if e.fast is not None
                    and e.error is None]
        measured.sort(key=lambda e: (self._objective(e.fast),
                                     e.candidate.key()))
        top = measured[:self.top_k]
        resumed += self._measure(top, points, "cycle", engine, write, seen)

        # Baselines: both built-in mappings at the base configuration.
        baselines: dict[str, dict] = {}
        for mapping in MAPPINGS:
            record = seen.get(("baseline", mapping))
            if record is not None:
                baselines[mapping] = record["report"]
                resumed += 1
                continue
            outcome = engine.map(
                [JobSpec(self.network, config=base, mapping=mapping,
                         fidelity="cycle", tag=f"baseline:{mapping}")],
                workers=1, errors="capture")[0]
            if isinstance(outcome, JobFailed):  # pragma: no cover - defensive
                continue
            baselines[mapping] = self._measurement(outcome)
            write({"baseline": mapping, "report": baselines[mapping]})

        report = TuneReport(network=self._network_name(),
                            objective=self.objective, entries=entries,
                            baselines=baselines, resumed=resumed)

        verified = [e for e in top if e.cycle is not None and e.error is None]
        if verified:
            winner = min(verified,
                         key=lambda e: (self._objective(e.cycle),
                                        e.candidate.key()))
            report.winner = winner.candidate
            report.winner_measured = winner.cycle
            win_obj = self._objective(winner.cycle)
            for mapping, meas in baselines.items():
                base_obj = self._objective(meas)
                if win_obj > 0:
                    report.speedups[mapping] = base_obj / win_obj
            report.config_delta = _config_delta(base, points[winner.candidate])

        write({"summary": {
            "network": report.network, "objective": report.objective,
            "considered": report.considered, "evaluated": report.evaluated,
            "resumed": report.resumed,
            "winner": report.winner.key() if report.winner else None,
        }})
        return report


def _config_delta(base: ArchConfig, tuned: ArchConfig) -> dict[str, dict]:
    """Leaves that differ between two configurations, as dotted paths.

    ``name`` and the ``sim`` section are skipped — they never change what
    gets built, mirroring the compile-cache fingerprint.
    """
    delta: dict[str, dict] = {}

    def walk(prefix: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in a:
                walk(f"{prefix}.{key}" if prefix else key, a[key], b[key])
        elif a != b:
            delta[prefix] = {"base": a, "tuned": b}

    base_d, tuned_d = base.to_dict(), tuned.to_dict()
    for section in ("name", "sim"):
        base_d.pop(section, None)
        tuned_d.pop(section, None)
    walk("", base_d, tuned_d)
    return delta
