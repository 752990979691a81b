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
from functools import cache
from pathlib import Path
from typing import Any

from ..config import ArchConfig, get_preset
from ..config.schema import (Fidelity, MappingPolicy, PositiveFloat,
                             PositiveInt, field_errors)
from ..graph import Graph, kv_extent
from ..graph.serialize import graph_from_dict, graph_to_dict
from ..models import DECODE_MODELS, MODELS, build_model

__all__ = ["InvalidJobSpec", "JobSpec", "load_specs", "save_specs"]


class InvalidJobSpec(ValueError):
    """A job spec no simulation can mean (see :meth:`JobSpec.validate`).
    ``errors`` maps each refused field to its problem, so ``pimsim`` can
    name the flag; a malformed document has none."""

    def __init__(self, message: str, errors: dict | None = None) -> None:
        super().__init__(message)
        self.errors = errors or {}


@cache
def _zoo_kv_extent(name: str) -> tuple[int, int] | None:
    """:func:`kv_extent` of a zoo network (decode models take no image)."""
    return kv_extent(build_model(name)) if name in DECODE_MODELS else None


@dataclass
class JobSpec:
    """One simulation job: a network plus per-job overrides.

    Carries the keyword surface of :func:`repro.runner.api.simulate`
    (same leading fields, in the same order).  ``tag`` is carried through to
    ``report.meta["sweep_tag"]`` untouched so callers can label points.
    """

    network: str | Graph
    config: ArchConfig | None = None
    mapping: MappingPolicy | None = None
    rob_size: PositiveInt | None = None
    imagenet: bool = False
    batch: PositiveInt = 1
    max_cycles: PositiveInt | None = None
    tag: Any = None
    #: override for ``compiler.attention_shards`` (token-sharded dynamic
    #: attention, PR 4); ``None`` keeps the configuration's value.
    attention_shards: PositiveInt | None = None
    #: wall-clock seconds a pooled worker may spend on this job before
    #: the watchdog kills it and the job fails with
    #: :class:`~repro.engine.JobTimeout` (``None``: the pool's
    #: ``default_timeout``; enforced on pooled runs only).
    timeout: PositiveFloat | None = None
    #: chaos directive for the fault-injection harness
    #: (:mod:`repro.engine.faults`); trips only inside pool workers,
    #: never in-process.
    faults: dict | None = None
    #: autoregressive decode: run this many steps over a growing KV
    #: cache (network must contain ``kv_cache`` nodes).  The program is
    #: compiled once as an extent-parameterized template and replayed
    #: per step; the report aggregates all steps and carries the
    #: per-step cycle counts in ``meta["decode"]``.
    decode_steps: PositiveInt | None = None
    #: KV extent (tokens in the cache) at the *first* decode step;
    #: ``None``: the token count the network was built with.
    kv_tokens: PositiveInt | None = None
    #: execution fidelity override: ``"cycle"`` (bit-exact) or ``"fast"``
    #: (batched analytic executor, bounded-error); ``None`` falls back to
    #: the configuration's ``sim.fidelity``.  Appended last so job ids of
    #: specs that never set it are unchanged.
    fidelity: Fidelity | None = None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict; default-valued overrides are omitted."""
        data: dict[str, Any] = {}
        if isinstance(self.network, Graph):
            data["network"] = {"graph": graph_to_dict(self.network)}
        else:
            data["network"] = self.network
        if isinstance(self.config, ArchConfig):
            data["config"] = self.config.to_dict()
        elif self.config is not None:  # invalid: validate() names it
            data["config"] = self.config
        for f in fields(self):
            if f.name in ("network", "config"):
                continue
            value = getattr(self, f.name)
            if value != f.default:
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict,
                  default_config: ArchConfig | None = None) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output, :meth:`validate`\\ d
        against ``default_config`` (what it runs on if it carries none).

        ``network`` may be a zoo name or an embedded graph description;
        ``config`` may be a full configuration dict or a preset name.
        """
        return cls._parse(data).validate(default_config)

    @classmethod
    def _parse(cls, data: dict) -> "JobSpec":
        """:meth:`from_dict` without the value checks."""
        if not isinstance(data, dict) or "network" not in data:
            raise InvalidJobSpec("job spec must be an object with a "
                                 "'network'")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidJobSpec(f"job spec: unknown keys {sorted(unknown)}")
        kwargs = dict(data)
        network = kwargs["network"]
        if isinstance(network, dict):
            kwargs["network"] = graph_from_dict(network.get("graph", network))
        config = kwargs.get("config")
        if isinstance(config, str):
            try:
                kwargs["config"] = get_preset(config)
            except KeyError as exc:
                raise InvalidJobSpec(f"config: {exc.args[0]}") from None
        elif isinstance(config, dict):
            kwargs["config"] = ArchConfig.from_dict(config)
        return cls(**kwargs)

    def validate(self, default_config: ArchConfig | None = None) -> "JobSpec":
        """Check every field; returns ``self``.

        The one copy of the job-field rules: ``from_dict``, :meth:`Engine.run
        <repro.engine.Engine.run>`, ``POST /jobs`` and the ``pimsim`` flags
        all call it.  A field's type, range and choices are its annotation,
        checked by the configuration decoder (``faults``' contents are the
        fault harness's).  Then: a known network; decode fields only on a
        network with ``kv_cache`` nodes, with ``batch == 1`` and KV extents
        within the cache; ``attention_shards`` within the cores of the
        spec's configuration, else of ``default_config`` (what it runs on).
        Raises :class:`InvalidJobSpec` naming every violation.
        """
        bad = field_errors(self)  # field -> what is wrong with it
        name = getattr(self.network, "name", self.network)
        if isinstance(self.network, Graph):
            extent = kv_extent(self.network)
        elif isinstance(self.network, str) and self.network in MODELS:
            extent = _zoo_kv_extent(self.network)
        else:
            name = extent = None  # reported once, not again for decoding
            bad["network"] = (f"must be one of {sorted(MODELS)} or a graph, "
                              f"got {self.network!r}")
        target, shards = self.config or default_config, self.attention_shards
        if (shards is not None and target is not None
                and not bad.keys() & {"attention_shards", "config"}
                and not field_errors(target)  # else it has no core count
                and shards > target.chip.n_cores):
            bad["attention_shards"] = (
                f"must be <= {target.chip.n_cores}, the core count of "
                f"{target.name}, got {shards}")
        steps = self.decode_steps
        decoding = [field for field in ("decode_steps", "kv_tokens")
                    if getattr(self, field) is not None]
        if decoding and name is not None and extent is None:
            bad["network"] = (f"must have kv_cache nodes for {' / '.join(decoding)} "
                              f"(one of {list(DECODE_MODELS)}), got {name!r}")
        elif extent is not None and not bad.keys() & set(decoding):
            first, capacity = self.kv_tokens or extent[0], extent[1]
            if first > capacity:
                bad["kv_tokens"] = (f"must be <= {capacity}, the KV "
                                    f"capacity of {name}, got {first}")
            elif steps is not None and first + steps - 1 > capacity:
                bad["decode_steps"] = (
                    f"must be <= {capacity - first + 1} from KV extent {first} "
                    f"(the KV capacity of {name} is {capacity}), got {steps}")
        if steps is not None and "batch" not in bad and self.batch > 1:
            bad["batch"] = (f"must be 1 for a decode job (decode_steps is "
                            f"set), got {self.batch}")
        if bad:
            raise InvalidJobSpec("; ".join(f"{field} {problem}" for field,
                                           problem in bad.items()), bad)
        return self

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
    """Load a job-spec file: one spec object, a list, or ``{"jobs": [...]}``.

    Only the document's shape is checked here; :meth:`Engine.run
    <repro.engine.Engine.run>` calls :meth:`~JobSpec.validate`, so
    ``pimsim batch`` records a bad line as that job's ``InvalidJobSpec``
    error record and still runs the others.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "jobs" in data:
        data = data["jobs"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a spec object, list, or "
                         "{'jobs': [...]} document")
    return [JobSpec._parse(entry) for entry in data]


def save_specs(specs: list[JobSpec], path: str | Path) -> None:
    """Write specs as a ``{"jobs": [...]}`` document (see :func:`load_specs`)."""
    doc = {"jobs": [spec.to_dict() for spec in specs]}
    Path(path).write_text(json.dumps(doc, indent=2))
