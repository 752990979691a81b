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
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, Any, Literal, Union, get_args, get_origin, get_type_hints

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


# A field's annotation declares every value it accepts on its own (a
# number's bound is ``Annotated`` metadata: operator, bound), and
# :func:`field_errors` is the one check of it.
PositiveInt = Annotated[int, ">=", 1]
NonNegativeInt = Annotated[int, ">=", 0]
PositiveFloat = Annotated[float, ">", 0]
NonNegativeFloat = Annotated[float, ">=", 0]

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

MappingPolicy = Literal[MAPPINGS]
Fidelity = Literal[FIDELITIES]
ShardPlacement = Literal[SHARD_PLACEMENTS]


@dataclass
class CrossbarConfig:
    """One memristor crossbar and its converters.

    The matrix-vector multiplication latency is derived from the converter
    micro-parameters unless ``mvm_latency_cycles`` is set explicitly:
    the input vector is streamed in ``input_bits / dac_bits`` phases, and in
    each phase the ``adcs_per_crossbar`` ADCs scan the ``cols`` bitlines.
    """

    rows: PositiveInt = 128
    cols: PositiveInt = 128
    cell_bits: PositiveInt = 2
    #: weight precision; with ``bit_sliced`` each logical weight column
    #: spreads over ceil(weight_bits / cell_bits) physical columns whose
    #: partial products are shift-added digitally (PUMA/MNSIM-style).
    weight_bits: PositiveInt = 8
    bit_sliced: bool = False
    input_bits: PositiveInt = 8
    dac_bits: PositiveInt = 1
    adcs_per_crossbar: PositiveInt = 8
    adc_cycles_per_sample: PositiveInt = 1
    #: explicit override for the per-crossbar MVM latency (cycles).
    mvm_latency_cycles: PositiveInt | None = None

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

    crossbars_per_core: PositiveInt = 512
    rob_size: PositiveInt = 8
    fetch_width: PositiveInt = 1
    decode_cycles: NonNegativeInt = 1
    dispatch_cycles: NonNegativeInt = 1
    vector_lanes: PositiveInt = 32
    vector_issue_cycles: NonNegativeInt = 1
    #: per-element cycle cost of transcendental-heavy vector ops
    #: (softmax / layernorm / gelu): each element runs an exp / rsqrt /
    #: erf micro-pipeline instead of one ALU op.
    vector_special_cycles_per_element: PositiveInt = 4
    scalar_cycles: NonNegativeInt = 1
    local_memory_bytes: PositiveInt = 2 * 1024 * 1024
    local_memory_read_bytes_per_cycle: PositiveInt = 64
    local_memory_write_bytes_per_cycle: PositiveInt = 64
    #: number of ADC time-multiplex domains shared across the core's
    #: crossbars; 0 means no core-level ADC sharing constraint (each
    #: crossbar's own converters bound the rate).
    shared_adc_domains: NonNegativeInt = 0


@dataclass
class ChipConfig:
    """Chip-level layout: mesh of cores plus a global memory node."""

    mesh_rows: PositiveInt = 8
    mesh_cols: PositiveInt = 8
    #: mesh coordinate of the global-memory access point.
    global_memory_xy: tuple[int, int] = (0, 0)
    global_memory_bytes_per_cycle: PositiveInt = 32
    global_memory_latency_cycles: NonNegativeInt = 100

    @property
    def n_cores(self) -> int:
        return self.mesh_rows * self.mesh_cols


@dataclass
class NocConfig:
    """Mesh interconnect parameters."""

    hop_cycles: PositiveInt = 2
    link_bytes_per_cycle: PositiveInt = 32
    #: per-flow credit window (in messages) for synchronized transfers;
    #: 1 degenerates to strict rendezvous.
    sync_window: PositiveInt = 4
    #: model per-link contention (serialize messages sharing a link).
    model_contention: bool = True


@dataclass
class EnergyConfig:
    """Per-operation energies (picojoules) and static power (milliwatts)."""

    xbar_read_pj_per_cell: NonNegativeFloat = 0.0002
    dac_pj_per_conversion: NonNegativeFloat = 0.1
    adc_pj_per_sample: NonNegativeFloat = 2.0
    vector_pj_per_element: NonNegativeFloat = 0.5
    #: transcendental-heavy vector ops (softmax / layernorm / gelu).
    vector_special_pj_per_element: NonNegativeFloat = 2.5
    #: one multiply-accumulate on the vector unit (dynamic matmuls that
    #: cannot live in crossbars: attention scores / context products).
    vector_mac_pj: NonNegativeFloat = 0.8
    scalar_pj_per_op: NonNegativeFloat = 0.1
    local_mem_pj_per_byte: NonNegativeFloat = 0.6
    global_mem_pj_per_byte: NonNegativeFloat = 12.0
    noc_pj_per_byte_hop: NonNegativeFloat = 1.2
    core_leakage_mw: NonNegativeFloat = 2.0
    chip_leakage_mw: NonNegativeFloat = 30.0


@dataclass
class CompilerConfig:
    """Software-side knobs (Section III-A)."""

    #: one of :data:`MAPPINGS`.
    mapping: MappingPolicy = "performance_first"
    #: allow weight duplication to fill spare crossbars (performance-first).
    allow_duplication: bool = True
    #: cap on copies of one layer per core.
    max_duplication: PositiveInt = 16
    #: output pixels per compute tile (codegen granularity).
    tile_pixels: PositiveInt = 8
    #: fuse activation (and pooling) into the producing conv/fc stage.
    operator_fusion: bool = True
    #: bytes per activation element (fixed-point width).
    activation_bytes: PositiveInt = 1
    #: shard each dynamic attention op's token range across this many
    #: cores (VMATMUL / per-head VSOFTMAX / VLAYERNORM / VGELU streams
    #: with partial gathers back to the home core); 1 = home-core only,
    #: the classic lowering.
    attention_shards: PositiveInt = 1
    #: how shard-group cores are chosen: one of :data:`SHARD_PLACEMENTS`.
    #: ``"distance"`` (the default, bit-identical to the classic PR 4
    #: behaviour) takes the home core's nearest mesh neighbours;
    #: ``"load_aware"`` additionally penalizes cores already hot with
    #: static crossbar work, trading up to one extra hop to shard onto
    #: an idle core.
    shard_placement: ShardPlacement = "distance"


@dataclass
class SimSettings:
    """Simulator settings block of the configuration file."""

    frequency_mhz: PositiveFloat = 1000.0
    max_cycles: PositiveInt | None = None
    trace: bool = False
    #: execution fidelity: one of :data:`FIDELITIES`.  ``"cycle"`` (the
    #: default) is the cycle-accurate event simulator; ``"fast"`` is the
    #: batched analytic executor (ROADMAP 3a) — same programs, same
    #: energy accounting, cycle counts within the check_fidelity gate's
    #: bound instead of bit-exact.
    fidelity: Fidelity = "cycle"

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
        (retired fields are dropped: see ``_RETIRED_FIELDS``).  Sections
        and tuples are built as the annotations say; :func:`validate`
        checks every other value against its annotation."""
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
    """Instantiate dataclass ``cls`` from nested dicts."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {type(data).__name__}")
    hints = _hints(cls)
    unknown = set(data) - hints.keys() - retired
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in retired:
            continue
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = _from_dict(hint, value, f"{context}.{key}",
                               _RETIRED_FIELDS.get(key, frozenset()))
        elif get_origin(hint) is tuple and isinstance(value, list):
            value = tuple(value)
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


@cache
def _hints(cls: type) -> dict[str, Any]:
    """Field name -> resolved annotation, ``Annotated`` metadata kept."""
    return get_type_hints(cls, include_extras=True)


#: base type -> (test of the value named ``{v}``, what it expects): an
#: int refuses bool and float; a float takes an int, not bool, NaN or ±inf.
_BASES: dict[type, tuple[str, str]] = {
    int: ("type({v}) is int", "an integer"),
    float: ("type({v}) is int or type({v}) is float and isfinite({v})",
            "a finite number"),
    bool: ("type({v}) is bool", "a boolean"),
    str: ("type({v}) is str", "a string"),
}


def _test(hint: Any, v: str, env: dict) -> tuple[str, str]:
    """``(test, expected)`` of one annotation: a Python expression that
    holds exactly when the value named ``v`` is accepted, and the phrase
    naming what is.  A class outside :data:`_BASES` is an ``isinstance``
    test, the class bound in ``env``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        test, expected = _test(args[0], v, env)
        limit = f"{args[1]} {args[2]}"
        return f"({test}) and {v} {limit}", f"{expected} {limit}"
    if origin is Literal:
        return f"{v} in {args!r}", f"one of {args}"
    if origin in (Union, UnionType):
        tests = [_test(arg, v, env) for arg in args if arg is not NoneType]
        test = " or ".join(f"({test})" for test, _ in tests)
        if NoneType in args:  # None is the unset default: not named
            test = f"{v} is None or {test}"
        return test, " or ".join(expected for _, expected in tests)
    if origin is tuple:
        tests = [_test(arg, f"{v}[{i}]", env) for i, arg in enumerate(args)]
        return (f"type({v}) is tuple and len({v}) == {len(args)}"
                + "".join(f" and ({test})" for test, _ in tests),
                f"[{', '.join(expected for _, expected in tests)}]")
    if hint is Any:
        return "True", "anything"
    if hint in _BASES:
        test, expected = _BASES[hint]
        return test.format(v=v), expected
    env[hint.__name__] = hint
    return f"isinstance({v}, {hint.__name__})", f"an instance of {hint.__name__}"


def _checks(cls: type, obj: str, prefix: str, indent: str,
            env: dict) -> str:
    """Source testing each field of the dataclass named ``obj``, and each
    field of a section (a dataclass field) once the section is one."""
    hints, source = _hints(cls), ""
    for f in dataclasses.fields(cls):
        path, hint = prefix + f.name, hints[f.name]
        test, expected = _test(hint, "v", env)
        source += (f"{indent}v = {obj}.{f.name}\n{indent}if not ({test}):\n"
                   f"{indent}    bad[{path!r}] = "
                   f"{f'must be {expected}, got '!r} + repr(v)\n")
        if dataclasses.is_dataclass(hint):
            section = "s_" + path.replace(".", "_")
            source += (f"{indent}else:\n{indent}    {section} = v\n"
                       + _checks(hint, section, path + ".", indent + "    ", env))
    return source


@cache
def _decoder(cls: type) -> Callable[[Any], dict[str, str]]:
    """:func:`field_errors` of dataclass ``cls``, generated once per class:
    a valid object costs one inline test per field."""
    env = {"isfinite": math.isfinite}
    exec("def refused(obj):\n    bad = {}\n"
         + _checks(cls, "obj", "", "    ", env) + "    return bad\n", env)
    return env["refused"]


def field_errors(obj: Any) -> dict[str, str]:
    """The decoder: ``{dotted field: problem}`` for every field of
    dataclass ``obj`` (and of its sections) whose value its annotation
    does not accept."""
    return _decoder(type(obj))(obj)
