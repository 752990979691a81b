"""Job specifications: one simulation request as a value (and as a file).

A :class:`JobSpec` is the unit of work the :class:`~repro.engine.Engine`
consumes: a network (zoo name or in-memory graph) plus the per-job
overrides every sweep in the paper turns (mapping policy, ROB capacity,
batch length, input resolution, cycle limit, attention shard count) and a
caller-owned ``tag`` carried through to the report.

Specs serialize to JSON (:meth:`JobSpec.to_dict` / :meth:`JobSpec.from_dict`),
so an experiment is a file: ``pimsim batch experiment.json`` replays a list
of specs and emits one report per line.  Graph networks embed their full
network description (:mod:`repro.graph.serialize`); configurations embed
the architecture configuration tree, or reference a preset by name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from ..config import ArchConfig, get_preset
from ..graph import Graph
from ..graph.serialize import graph_from_dict, graph_to_dict

__all__ = ["JobSpec", "load_specs", "save_specs"]


@dataclass
class JobSpec:
    """One simulation job: a network plus per-job overrides.

    Carries the keyword surface of :func:`repro.runner.api.simulate`
    (same leading fields, in the same order).  ``tag`` is carried through to
    ``report.meta["sweep_tag"]`` untouched so callers can label points.
    """

    network: str | Graph
    config: ArchConfig | None = None
    mapping: str | None = None
    rob_size: int | None = None
    imagenet: bool = False
    batch: int = 1
    max_cycles: int | None = None
    tag: Any = None
    #: override for ``compiler.attention_shards`` (token-sharded dynamic
    #: attention, PR 4); ``None`` keeps the configuration's value.
    attention_shards: int | None = None
    #: wall-clock seconds a pooled worker may spend on this job before
    #: the watchdog kills it and the job fails with
    #: :class:`~repro.engine.JobTimeout` (``None``: the pool's
    #: ``default_timeout``; enforced on pooled runs only).
    timeout: float | None = None
    #: chaos directive for the fault-injection harness
    #: (:mod:`repro.engine.faults`); trips only inside pool workers,
    #: never in-process.
    faults: dict | None = None
    #: autoregressive decode: run this many steps over a growing KV
    #: cache (network must contain ``kv_cache`` nodes).  The program is
    #: compiled once as an extent-parameterized template and replayed
    #: per step; the report aggregates all steps and carries the
    #: per-step cycle counts in ``meta["decode"]``.
    decode_steps: int | None = None
    #: KV extent (tokens in the cache) at the *first* decode step;
    #: ``None``: the token count the network was built with.
    kv_tokens: int | None = None
    #: execution fidelity override: ``"cycle"`` (bit-exact) or ``"fast"``
    #: (batched analytic executor, bounded-error); ``None`` falls back to
    #: the engine default, then the configuration's ``sim.fidelity``
    #: (same precedence as ``timeout``).  Appended last so job ids of
    #: specs that never set it are unchanged.
    fidelity: str | None = None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict; default-valued overrides are omitted."""
        data: dict[str, Any] = {}
        if isinstance(self.network, Graph):
            data["network"] = {"graph": graph_to_dict(self.network)}
        else:
            data["network"] = self.network
        if self.config is not None:
            data["config"] = self.config.to_dict()
        for f in fields(self):
            if f.name in ("network", "config"):
                continue
            value = getattr(self, f.name)
            if value != f.default:
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        ``network`` may be a zoo name or an embedded graph description;
        ``config`` may be a full configuration dict or a preset name.
        """
        if not isinstance(data, dict) or "network" not in data:
            raise ValueError("job spec must be an object with a 'network'")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"job spec: unknown keys {sorted(unknown)}")
        kwargs = dict(data)
        network = kwargs["network"]
        if isinstance(network, dict):
            kwargs["network"] = graph_from_dict(network.get("graph", network))
        config = kwargs.get("config")
        if isinstance(config, str):
            kwargs["config"] = get_preset(config)
        elif isinstance(config, dict):
            kwargs["config"] = ArchConfig.from_dict(config)
        return cls(**kwargs)

    def job_id(self) -> str:
        """Stable, content-addressed identity of this job.

        The digest of the canonical (sorted-key) JSON of
        :meth:`to_dict`, so the id survives process restarts and
        serialization round-trips — the property ``pimsim serve``'s
        crash-safe store builds its idempotency on: the same spec
        submitted twice is the same job, and a journaled result is
        never recomputed.  Embedded graphs hash by their serialized
        contents; distinguish intentional re-runs with ``tag``.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return "j" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_dict(json.loads(text))


def load_specs(path: str | Path) -> list[JobSpec]:
    """Load a job-spec file: one spec object, a list, or ``{"jobs": [...]}``."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "jobs" in data:
        data = data["jobs"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a spec object, list, or "
                         "{'jobs': [...]} document")
    return [JobSpec.from_dict(entry) for entry in data]


def save_specs(specs: list[JobSpec], path: str | Path) -> None:
    """Write specs as a ``{"jobs": [...]}`` document (see :func:`load_specs`)."""
    doc = {"jobs": [spec.to_dict() for spec in specs]}
    Path(path).write_text(json.dumps(doc, indent=2))
