"""Exhaustive fast-tier design-space search over the compiler/core knobs.

:class:`Tuner` explores the cross product of the knobs a deployment can
actually turn — mapping policy, ROB capacity, attention shard count and
shard-group placement — in three stages:

1. **Enumerate** every distinct candidate (shard knobs collapse for
   networks with no shardable stage, placements collapse at one shard,
   shard counts are capped at the chip's core count).
2. **Measure** every candidate at ``fidelity="fast"`` through
   :meth:`Engine.as_completed <repro.engine.Engine.as_completed>` —
   pool-parallel with ``workers > 1``, and compiled through the
   engine's compile cache (ROB size and fidelity share one entry per
   structure).  A fast run costs about what any cheaper scorer would,
   and is the only approximation gated against the cycle model, so
   nothing is pruned unmeasured; bound a search by narrowing
   ``rob_sizes`` / ``shard_counts`` / ``placements``.
3. **Re-verify** the ``top_k`` measured leaders at ``fidelity="cycle"``
   and measure both built-in mapping baselines at the base
   configuration, also at cycle fidelity.

Every measurement streams to a JSONL *journal* as it lands (same
crash-safe discipline as ``pimsim batch``): ``tune(journal=...,
resume=True)`` replays only the measurements the journal does not
already cover.  The result is a JSON-round-trippable
:class:`TuneReport`: the full measured table, the winning
:class:`~repro.config.ArchConfig` delta and the speedup against both
built-in mappings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..config import SHARD_PLACEMENTS, ArchConfig
from ..engine import Engine, JobFailed, JobSpec, resolve_engine
from ..engine.journal import Journal
from .costmodel import OBJECTIVES, CostEstimate

__all__ = ["Candidate", "Tuner", "TuneEntry", "TuneReport"]

#: both built-in mapping policies — the tuner always covers (and
#: baselines against) the full set.
MAPPINGS = ("utilization_first", "performance_first")


@dataclass(frozen=True)
class Candidate:
    """One point of the design space: the four tuned knobs."""

    mapping: str
    rob_size: int
    attention_shards: int = 1
    shard_placement: str = "distance"

    def key(self) -> str:
        """Stable human-readable identity, e.g.
        ``performance_first/rob16/shards4/load_aware``."""
        return (f"{self.mapping}/rob{self.rob_size}/"
                f"shards{self.attention_shards}/{self.shard_placement}")

    def to_dict(self) -> dict:
        return {"mapping": self.mapping, "rob_size": self.rob_size,
                "attention_shards": self.attention_shards,
                "shard_placement": self.shard_placement}

    @classmethod
    def from_dict(cls, data: dict) -> "Candidate":
        return cls(**data)

    def spec(self, network, config: ArchConfig, *,
             fidelity: str | None = None) -> JobSpec:
        """The :class:`~repro.engine.JobSpec` measuring this candidate.

        ``shard_placement`` travels in the configuration (it has no
        per-job override field); the other knobs use the spec's override
        fields so the engine's ``_resolve`` precedence applies.
        """
        cfg = config
        if cfg.compiler.shard_placement != self.shard_placement:
            cfg = cfg.with_shard_placement(self.shard_placement)
        return JobSpec(network, config=cfg, mapping=self.mapping,
                       rob_size=self.rob_size,
                       attention_shards=self.attention_shards,
                       fidelity=fidelity, tag=self.key())


@dataclass
class TuneEntry:
    """One candidate's row of the measured table."""

    candidate: Candidate
    #: fast-fidelity measurement ``{"cycles", "energy_pj", "fidelity"}``.
    fast: dict | None = None
    #: cycle-fidelity re-verification (top-k only).
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
                   if e.fast is not None or e.error is not None)

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
        default).  Baselines and the winner's delta are reported
        against it.
    objective:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    top_k:
        How many measured leaders are re-verified at cycle fidelity.
    rob_sizes / shard_counts / placements:
        The knob grid — every point of it is measured, so these bound
        the search.  Shard counts are capped at the chip's core count;
        shard knobs collapse to 1/"distance" for networks without
        shardable stages.
    engine / workers:
        Where and how wide measurements run.
    """

    def __init__(self, network, config: ArchConfig | None = None, *,
                 objective: str = "latency", top_k: int = 2,
                 rob_sizes: tuple = (1, 4, 8, 16, 32),
                 shard_counts: tuple = (1, 2, 4, 8),
                 placements: tuple = SHARD_PLACEMENTS,
                 engine: Engine | None = None, workers: int = 1):
        if objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}")
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        for placement in placements:
            if placement not in SHARD_PLACEMENTS:
                raise ValueError(
                    f"placements must be drawn from {SHARD_PLACEMENTS}, "
                    f"got {placement!r}")
        self.network = network
        self.config = config
        self.objective = objective
        self.top_k = top_k
        self.rob_sizes = tuple(rob_sizes)
        self.shard_counts = tuple(shard_counts)
        self.placements = tuple(placements)
        self.engine = engine
        self.workers = workers

    # -- candidate generation ------------------------------------------------

    def candidates(self, base: ArchConfig, shardable: bool) -> list[Candidate]:
        """The deduplicated knob grid for this network/chip."""
        n_cores = base.chip.n_cores
        shard_counts = sorted({min(s, n_cores) for s in self.shard_counts
                               if s >= 1}) if shardable else [1]
        out: list[Candidate] = []
        seen: set = set()
        for mapping in MAPPINGS:
            for rob in self.rob_sizes:
                for shards in shard_counts:
                    placements = self.placements if shards > 1 \
                        else ("distance",)
                    for placement in placements:
                        cand = Candidate(mapping, rob, shards, placement)
                        if cand.key() not in seen:
                            seen.add(cand.key())
                            out.append(cand)
        return out

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

    def _measure(self, entries: list[TuneEntry], base: ArchConfig,
                 fidelity: str, engine: Engine, write, seen: dict) -> int:
        """Fill ``entry.fast`` or ``entry.cycle`` for every entry,
        replaying journaled measurements and streaming fresh ones.
        Returns how many came from the journal."""
        slot = "fast" if fidelity == "fast" else "cycle"
        resumed = 0
        to_run: list[TuneEntry] = []
        for entry in entries:
            record = seen.get((entry.candidate.key(), fidelity))
            if record is None:
                to_run.append(entry)
                continue
            resumed += 1
            if "report" in record:
                setattr(entry, slot, record["report"])
            else:
                entry.error = record["error"]
        if to_run:
            specs = [e.candidate.spec(self.network, base, fidelity=fidelity)
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
                    setattr(entry, slot, self._measurement(outcome))
                    record["report"] = getattr(entry, slot)
                write(record)
        return resumed

    # -- the run -------------------------------------------------------------

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
        base_compiled, base = engine.compile_for(
            JobSpec(self.network, config=self.config))
        network_name = base_compiled.program.meta.get(
            "network", self.network if isinstance(self.network, str)
            else getattr(self.network, "name", "graph"))
        shardable = any(stage.kind == "aux" and stage.shardable
                        for stage in base_compiled.pipeline)

        # 1-2. enumerate, measure every candidate at fast fidelity.
        entries = [TuneEntry(candidate=cand)
                   for cand in self.candidates(base, shardable)]
        resumed = self._measure(entries, base, "fast", engine, write, seen)

        # 3. cycle-verify the measured leaders.
        measured = [e for e in entries if e.fast is not None
                    and e.error is None]
        measured.sort(key=lambda e: (self._objective(e.fast),
                                     e.candidate.key()))
        top = measured[:self.top_k]
        resumed += self._measure(top, base, "cycle", engine, write, seen)

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

        report = TuneReport(network=network_name, objective=self.objective,
                            entries=entries, baselines=baselines,
                            resumed=resumed)

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
            _, winner_cfg = engine.compile_for(
                winner.candidate.spec(self.network, base))
            report.config_delta = _config_delta(base, winner_cfg)

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
