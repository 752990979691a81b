"""Semantic validation of architecture configurations.

:func:`validate` raises :class:`~repro.config.schema.ConfigError` with a
message naming every violated constraint, so a bad configuration file fails
loudly before any compilation or simulation starts.
"""

from __future__ import annotations

from .schema import ArchConfig, ConfigError, field_errors

__all__ = ["validate"]


def validate(config: ArchConfig) -> ArchConfig:
    """Check every field against its annotation (its type, range and
    choices, declared once at the field and checked by the decoder
    :func:`~repro.config.schema.field_errors`), then, if all pass, the
    rules that relate fields; return the config on success."""
    errors = [f"{field} {problem}"
              for field, problem in field_errors(config).items()]
    if not errors:
        chip, xbar = config.chip, config.crossbar
        gx, gy = chip.global_memory_xy
        if not (0 <= gx < chip.mesh_rows and 0 <= gy < chip.mesh_cols):
            errors.append(f"chip.global_memory_xy {chip.global_memory_xy} outside "
                          f"the chip.mesh_rows x chip.mesh_cols = "
                          f"{chip.mesh_rows}x{chip.mesh_cols} mesh")
        if xbar.bit_sliced and xbar.slices_per_weight > xbar.cols:
            errors.append(f"crossbar.bit_sliced: one weight needs "
                          f"{xbar.slices_per_weight} columns (crossbar.weight_bits "
                          f"/ crossbar.cell_bits) but crossbar.cols is {xbar.cols}")
        if xbar.dac_bits > xbar.input_bits:
            errors.append(f"crossbar.dac_bits ({xbar.dac_bits}) exceeds "
                          f"crossbar.input_bits ({xbar.input_bits})")
        if xbar.adcs_per_crossbar > xbar.cols:
            errors.append(f"crossbar.adcs_per_crossbar ({xbar.adcs_per_crossbar}) "
                          f"exceeds crossbar.cols ({xbar.cols})")
        if config.noc.sync_window < 2:
            errors.append(f"noc.sync_window must be >= 2 (co-resident producer/"
                          f"consumer ring safety; see DESIGN.md), got "
                          f"{config.noc.sync_window}")
        if config.compiler.attention_shards > chip.n_cores:
            errors.append(f"compiler.attention_shards ({config.compiler.attention_shards}) "
                          f"exceeds the chip.mesh_rows x chip.mesh_cols = "
                          f"{chip.n_cores} cores")
    if errors:
        raise ConfigError(
            f"invalid configuration {config.name!r}:\n  - " + "\n  - ".join(errors)
        )
    return config
