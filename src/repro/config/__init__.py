"""Architecture configuration files (schema, validation, presets)."""

from .presets import (
    PRESETS,
    get_preset,
    mnsim_like_chip,
    paper_chip,
    scaled,
    small_chip,
    tiny_chip,
    with_param,
)
from .schema import (
    FIDELITIES,
    SHARD_PLACEMENTS,
    ArchConfig,
    ChipConfig,
    CompilerConfig,
    ConfigError,
    CoreConfig,
    CrossbarConfig,
    EnergyConfig,
    NocConfig,
    SimSettings,
)
from .validate import validate

__all__ = [
    "ArchConfig",
    "ChipConfig",
    "CoreConfig",
    "CrossbarConfig",
    "NocConfig",
    "EnergyConfig",
    "CompilerConfig",
    "SimSettings",
    "ConfigError",
    "FIDELITIES",
    "SHARD_PLACEMENTS",
    "validate",
    "paper_chip",
    "small_chip",
    "tiny_chip",
    "mnsim_like_chip",
    "scaled",
    "with_param",
    "PRESETS",
    "get_preset",
]
