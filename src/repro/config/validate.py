"""Semantic validation of architecture configurations.

:func:`validate` raises :class:`~repro.config.schema.ConfigError` with a
message naming every violated constraint, so a bad configuration file fails
loudly before any compilation or simulation starts.
"""

from __future__ import annotations

from .schema import (
    FIDELITIES,
    MAPPINGS,
    SHARD_PLACEMENTS,
    ArchConfig,
    ConfigError,
)

__all__ = ["validate"]


def _positive(errors: list[str], section: str, **values: float) -> None:
    for key, value in values.items():
        if value <= 0:
            errors.append(f"{section}.{key} must be positive, got {value}")


def _non_negative(errors: list[str], section: str, **values: float) -> None:
    for key, value in values.items():
        if value < 0:
            errors.append(f"{section}.{key} must be >= 0, got {value}")


def validate(config: ArchConfig) -> ArchConfig:
    """Check every cross-field constraint; return the config on success."""
    errors: list[str] = []
    chip, core, xbar = config.chip, config.core, config.crossbar
    noc, energy, comp, sim = config.noc, config.energy, config.compiler, config.sim

    _positive(errors, "chip", mesh_rows=chip.mesh_rows, mesh_cols=chip.mesh_cols,
              global_memory_bytes_per_cycle=chip.global_memory_bytes_per_cycle)
    _non_negative(errors, "chip",
                  global_memory_latency_cycles=chip.global_memory_latency_cycles)
    gx, gy = chip.global_memory_xy
    if not (0 <= gx < chip.mesh_rows and 0 <= gy < chip.mesh_cols):
        errors.append(
            f"chip.global_memory_xy {chip.global_memory_xy} outside the "
            f"{chip.mesh_rows}x{chip.mesh_cols} mesh"
        )

    _positive(errors, "core", crossbars_per_core=core.crossbars_per_core,
              rob_size=core.rob_size, fetch_width=core.fetch_width,
              vector_lanes=core.vector_lanes,
              vector_special_cycles_per_element=core.vector_special_cycles_per_element,
              local_memory_bytes=core.local_memory_bytes,
              local_memory_read_bytes_per_cycle=core.local_memory_read_bytes_per_cycle,
              local_memory_write_bytes_per_cycle=core.local_memory_write_bytes_per_cycle)
    _non_negative(errors, "core", decode_cycles=core.decode_cycles,
                  dispatch_cycles=core.dispatch_cycles,
                  scalar_cycles=core.scalar_cycles,
                  shared_adc_domains=core.shared_adc_domains)

    _positive(errors, "crossbar", rows=xbar.rows, cols=xbar.cols,
              cell_bits=xbar.cell_bits, input_bits=xbar.input_bits,
              weight_bits=xbar.weight_bits,
              dac_bits=xbar.dac_bits,
              adcs_per_crossbar=xbar.adcs_per_crossbar,
              adc_cycles_per_sample=xbar.adc_cycles_per_sample)
    if xbar.bit_sliced and xbar.slices_per_weight > xbar.cols:
        errors.append(
            f"crossbar.bit_sliced: one weight needs {xbar.slices_per_weight} "
            f"columns but the crossbar has only {xbar.cols}"
        )
    if xbar.mvm_latency_cycles is not None and xbar.mvm_latency_cycles <= 0:
        errors.append(
            f"crossbar.mvm_latency_cycles must be positive when set, "
            f"got {xbar.mvm_latency_cycles}"
        )
    if xbar.dac_bits > xbar.input_bits:
        errors.append(
            f"crossbar.dac_bits ({xbar.dac_bits}) exceeds input_bits "
            f"({xbar.input_bits})"
        )
    if xbar.adcs_per_crossbar > xbar.cols:
        errors.append(
            f"crossbar.adcs_per_crossbar ({xbar.adcs_per_crossbar}) exceeds "
            f"cols ({xbar.cols})"
        )

    _positive(errors, "noc", hop_cycles=noc.hop_cycles,
              link_bytes_per_cycle=noc.link_bytes_per_cycle,
              sync_window=noc.sync_window)
    if noc.sync_window < 2:
        errors.append(
            f"noc.sync_window must be >= 2 (co-resident producer/consumer "
            f"ring safety; see DESIGN.md), got {noc.sync_window}"
        )

    for key, value in vars(energy).items():
        if value < 0:
            errors.append(f"energy.{key} must be >= 0, got {value}")

    if comp.mapping not in MAPPINGS:
        errors.append(
            f"compiler.mapping must be 'utilization_first' or "
            f"'performance_first', got {comp.mapping!r}"
        )
    _positive(errors, "compiler", max_duplication=comp.max_duplication,
              tile_pixels=comp.tile_pixels, activation_bytes=comp.activation_bytes,
              attention_shards=comp.attention_shards)
    if comp.attention_shards > chip.n_cores:
        errors.append(
            f"compiler.attention_shards ({comp.attention_shards}) exceeds "
            f"the chip's {chip.n_cores} cores"
        )
    if comp.shard_placement not in SHARD_PLACEMENTS:
        errors.append(
            f"compiler.shard_placement must be one of {SHARD_PLACEMENTS}, "
            f"got {comp.shard_placement!r}"
        )

    _positive(errors, "sim", frequency_mhz=sim.frequency_mhz)
    if sim.max_cycles is not None and sim.max_cycles <= 0:
        errors.append(f"sim.max_cycles must be positive when set, got {sim.max_cycles}")
    if sim.fidelity not in FIDELITIES:
        errors.append(
            f"sim.fidelity must be one of {FIDELITIES}, got {sim.fidelity!r}"
        )

    if errors:
        raise ConfigError(
            f"invalid configuration {config.name!r}:\n  - " + "\n  - ".join(errors)
        )
    return config
