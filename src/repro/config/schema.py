"""Architecture configuration schema.

Mirrors the paper's *architecture configuration file*: architectural
resources, hardware performance parameters, interconnection parameters and
simulator settings (Fig. 1).  The configuration is a tree of frozen-ish
dataclasses that can be loaded from / saved to JSON, validated, and handed
to both the compiler (resource shape) and the simulator (timing/energy).

All times are in core clock cycles; energies in picojoules; the clock
frequency converts cycles to wall-clock time for power reporting.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "CrossbarConfig",
    "CoreConfig",
    "ChipConfig",
    "NocConfig",
    "EnergyConfig",
    "CompilerConfig",
    "SimSettings",
    "ArchConfig",
    "ConfigError",
    "FIDELITIES",
    "SHARD_PLACEMENTS",
]


class ConfigError(ValueError):
    """Raised when a configuration fails validation."""


@dataclass
class CrossbarConfig:
    """One memristor crossbar and its converters.

    The matrix-vector multiplication latency is derived from the converter
    micro-parameters unless ``mvm_latency_cycles`` is set explicitly:
    the input vector is streamed in ``input_bits / dac_bits`` phases, and in
    each phase the ``adcs_per_crossbar`` ADCs scan the ``cols`` bitlines.
    """

    rows: int = 128
    cols: int = 128
    cell_bits: int = 2
    #: weight precision; with ``bit_sliced`` each logical weight column
    #: spreads over ceil(weight_bits / cell_bits) physical columns whose
    #: partial products are shift-added digitally (PUMA/MNSIM-style).
    weight_bits: int = 8
    bit_sliced: bool = False
    input_bits: int = 8
    dac_bits: int = 1
    adcs_per_crossbar: int = 8
    adc_cycles_per_sample: int = 1
    #: explicit override for the per-crossbar MVM latency (cycles).
    mvm_latency_cycles: int | None = None

    @property
    def dac_phases(self) -> int:
        """Number of bit-serial input phases for a full-precision input."""
        return math.ceil(self.input_bits / self.dac_bits)

    @property
    def slices_per_weight(self) -> int:
        """Physical columns per logical weight column (1 when not sliced)."""
        if not self.bit_sliced:
            return 1
        return math.ceil(self.weight_bits / self.cell_bits)

    @property
    def samples_per_phase(self) -> int:
        """ADC conversions needed to read out all columns once."""
        return math.ceil(self.cols / self.adcs_per_crossbar)

    def mvm_cycles(self) -> int:
        """Latency in cycles of one crossbar MVM (one input vector)."""
        if self.mvm_latency_cycles is not None:
            return self.mvm_latency_cycles
        return self.dac_phases * self.samples_per_phase * self.adc_cycles_per_sample


@dataclass
class CoreConfig:
    """Per-core resources: execution units, ROB, queues, local memory."""

    crossbars_per_core: int = 512
    rob_size: int = 8
    fetch_width: int = 1
    decode_cycles: int = 1
    dispatch_cycles: int = 1
    vector_lanes: int = 32
    vector_issue_cycles: int = 1
    #: per-element cycle cost of transcendental-heavy vector ops
    #: (softmax / layernorm / gelu): each element runs an exp / rsqrt /
    #: erf micro-pipeline instead of one ALU op.
    vector_special_cycles_per_element: int = 4
    scalar_cycles: int = 1
    local_memory_bytes: int = 2 * 1024 * 1024
    local_memory_read_bytes_per_cycle: int = 64
    local_memory_write_bytes_per_cycle: int = 64
    #: number of ADC time-multiplex domains shared across the core's
    #: crossbars; 0 means no core-level ADC sharing constraint (each
    #: crossbar's own converters bound the rate).
    shared_adc_domains: int = 0


@dataclass
class ChipConfig:
    """Chip-level layout: mesh of cores plus a global memory node."""

    mesh_rows: int = 8
    mesh_cols: int = 8
    #: mesh coordinate of the global-memory access point.
    global_memory_xy: tuple[int, int] = (0, 0)
    global_memory_bytes_per_cycle: int = 32
    global_memory_latency_cycles: int = 100

    @property
    def n_cores(self) -> int:
        return self.mesh_rows * self.mesh_cols


@dataclass
class NocConfig:
    """Mesh interconnect parameters."""

    hop_cycles: int = 2
    link_bytes_per_cycle: int = 32
    #: per-flow credit window (in messages) for synchronized transfers;
    #: 1 degenerates to strict rendezvous.
    sync_window: int = 4
    #: model per-link contention (serialize messages sharing a link).
    model_contention: bool = True


@dataclass
class EnergyConfig:
    """Per-operation energies (picojoules) and static power (milliwatts)."""

    xbar_read_pj_per_cell: float = 0.0002
    dac_pj_per_conversion: float = 0.1
    adc_pj_per_sample: float = 2.0
    vector_pj_per_element: float = 0.5
    #: transcendental-heavy vector ops (softmax / layernorm / gelu).
    vector_special_pj_per_element: float = 2.5
    #: one multiply-accumulate on the vector unit (dynamic matmuls that
    #: cannot live in crossbars: attention scores / context products).
    vector_mac_pj: float = 0.8
    scalar_pj_per_op: float = 0.1
    local_mem_pj_per_byte: float = 0.6
    global_mem_pj_per_byte: float = 12.0
    noc_pj_per_byte_hop: float = 1.2
    core_leakage_mw: float = 2.0
    chip_leakage_mw: float = 30.0


@dataclass
class CompilerConfig:
    """Software-side knobs (Section III-A)."""

    #: one of :data:`MAPPINGS`.
    mapping: str = "performance_first"
    #: allow weight duplication to fill spare crossbars (performance-first).
    allow_duplication: bool = True
    #: cap on copies of one layer per core.
    max_duplication: int = 16
    #: output pixels per compute tile (codegen granularity).
    tile_pixels: int = 8
    #: fuse activation (and pooling) into the producing conv/fc stage.
    operator_fusion: bool = True
    #: bytes per activation element (fixed-point width).
    activation_bytes: int = 1
    #: shard each dynamic attention op's token range across this many
    #: cores (VMATMUL / per-head VSOFTMAX / VLAYERNORM / VGELU streams
    #: with partial gathers back to the home core); 1 = home-core only,
    #: the classic lowering.
    attention_shards: int = 1
    #: how shard-group cores are chosen: one of :data:`SHARD_PLACEMENTS`.
    #: ``"distance"`` (the default, bit-identical to the classic PR 4
    #: behaviour) takes the home core's nearest mesh neighbours;
    #: ``"load_aware"`` additionally penalizes cores already hot with
    #: static crossbar work, trading up to one extra hop to shard onto
    #: an idle core.
    shard_placement: str = "distance"


#: Valid mapping policies (Section III-A, Fig. 3).
MAPPINGS = ("utilization_first", "performance_first")

#: Valid execution fidelities: ``"cycle"`` is the bit-exact event-driven
#: simulator; ``"fast"`` batch-executes straight-line instruction runs
#: analytically (bounded-error, validated by ``tools/check_fidelity.py``).
FIDELITIES = ("cycle", "fast")

#: Valid shard-group placement policies: ``"distance"`` picks the home
#: core's nearest mesh neighbours (Manhattan distance, core-id
#: tie-break); ``"load_aware"`` adds a per-core static-crossbar-load
#: penalty so hot cores are skipped when an idle one is nearby.
SHARD_PLACEMENTS = ("distance", "load_aware")


@dataclass
class SimSettings:
    """Simulator settings block of the configuration file."""

    frequency_mhz: float = 1000.0
    max_cycles: int | None = None
    trace: bool = False
    #: execution fidelity: one of :data:`FIDELITIES`.  ``"cycle"`` (the
    #: default) is the cycle-accurate event simulator; ``"fast"`` is the
    #: batched analytic executor (ROADMAP 3a) — same programs, same
    #: energy accounting, cycle counts within the check_fidelity gate's
    #: bound instead of bit-exact.
    fidelity: str = "cycle"

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / (self.frequency_mhz * 1e6)


@dataclass
class ArchConfig:
    """Root of the architecture configuration file."""

    chip: ChipConfig = field(default_factory=ChipConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    compiler: CompilerConfig = field(default_factory=CompilerConfig)
    sim: SimSettings = field(default_factory=SimSettings)
    name: str = "unnamed"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Export the full configuration as a plain nested dict."""
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_dict(cls, data: dict) -> "ArchConfig":
        """Build a configuration from a nested dict, rejecting unknown keys
        (retired fields are dropped: see ``_RETIRED_FIELDS``)."""
        return _from_dict(cls, data, context="ArchConfig")

    @classmethod
    def from_json(cls, text: str) -> "ArchConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "ArchConfig":
        return cls.from_json(Path(path).read_text())

    # -- convenience ---------------------------------------------------------

    def core_xy(self, core_id: int) -> tuple[int, int]:
        """Mesh coordinate of a core id (row-major layout)."""
        if not 0 <= core_id < self.chip.n_cores:
            raise ConfigError(f"core id {core_id} out of range 0..{self.chip.n_cores - 1}")
        return divmod(core_id, self.chip.mesh_cols)

    def replaced(self, **top_level: Any) -> "ArchConfig":
        """Copy with top-level sections replaced (e.g. ``core=...``)."""
        return dataclasses.replace(self, **top_level)

    def with_rob_size(self, rob_size: int) -> "ArchConfig":
        """Copy with only the ROB capacity changed (Fig. 4 sweep helper)."""
        return self.replaced(core=dataclasses.replace(self.core, rob_size=rob_size))

    def with_mapping(self, mapping: str) -> "ArchConfig":
        """Copy with only the mapping policy changed (Fig. 3 sweep helper)."""
        return self.replaced(compiler=dataclasses.replace(self.compiler, mapping=mapping))

    def with_attention_shards(self, attention_shards: int) -> "ArchConfig":
        """Copy with only the attention shard count changed (PR 4 knob)."""
        return self.replaced(compiler=dataclasses.replace(
            self.compiler, attention_shards=attention_shards))

    def with_shard_placement(self, shard_placement: str) -> "ArchConfig":
        """Copy with only the shard-placement policy changed (tuner knob)."""
        return self.replaced(compiler=dataclasses.replace(
            self.compiler, shard_placement=shard_placement))

    def with_fidelity(self, fidelity: str) -> "ArchConfig":
        """Copy with only the execution fidelity changed (ROADMAP 3a knob)."""
        return self.replaced(sim=dataclasses.replace(self.sim, fidelity=fidelity))


def _from_dict(cls: type, data: Any, context: str,
               retired: frozenset = frozenset()) -> Any:
    """Recursively instantiate a dataclass tree from nested dicts."""
    if not dataclasses.is_dataclass(cls):
        return data
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {type(data).__name__}")
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields - retired
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in retired:
            continue
        nested = _DATACLASS_FIELDS.get((cls.__name__, key))
        if nested is not None:
            kwargs[key] = _from_dict(nested, value, f"{context}.{key}",
                                     _RETIRED_FIELDS.get(key, frozenset()))
        elif key == "global_memory_xy" and isinstance(value, list):
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    return cls(**kwargs)


#: section -> fields an older schema had that no model ever read (see
#: DESIGN.md "Every configuration field has a witness").  Loading drops
#: them, so configuration files and job specs written before their
#: removal still load; any other unknown key still raises.
_RETIRED_FIELDS: dict[str, frozenset] = {
    "core": frozenset({"unit_queue_depth"}),
    "crossbar": frozenset({"adc_bits"}),
    "noc": frozenset({"flit_bytes"}),
    "sim": frozenset({"collect_unit_stats"}),
}


#: map of (owner dataclass, field name) -> nested dataclass type, used by the
#: JSON loader.  Kept explicit so loading never relies on typing introspection.
_DATACLASS_FIELDS: dict[tuple[str, str], type] = {
    ("ArchConfig", "chip"): ChipConfig,
    ("ArchConfig", "core"): CoreConfig,
    ("ArchConfig", "crossbar"): CrossbarConfig,
    ("ArchConfig", "noc"): NocConfig,
    ("ArchConfig", "energy"): EnergyConfig,
    ("ArchConfig", "compiler"): CompilerConfig,
    ("ArchConfig", "sim"): SimSettings,
}
