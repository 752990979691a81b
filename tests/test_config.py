"""Tests for the architecture configuration schema, validation, presets."""

import dataclasses
import math
import re

import pytest

from repro.config import (
    ArchConfig,
    ChipConfig,
    ConfigError,
    CoreConfig,
    CrossbarConfig,
    NocConfig,
    PRESETS,
    get_preset,
    mnsim_like_chip,
    paper_chip,
    scaled,
    small_chip,
    tiny_chip,
    validate,
)
from repro.config.schema import field_errors


class TestCrossbarConfig:
    def test_default_mvm_cycles_derivation(self):
        xbar = CrossbarConfig(rows=128, cols=128, input_bits=8, dac_bits=1,
                              adcs_per_crossbar=8, adc_cycles_per_sample=1)
        # 8 bit-serial phases x (128 cols / 8 ADCs) samples x 1 cycle
        assert xbar.dac_phases == 8
        assert xbar.samples_per_phase == 16
        assert xbar.mvm_cycles() == 128

    def test_explicit_latency_override(self):
        xbar = CrossbarConfig(mvm_latency_cycles=50)
        assert xbar.mvm_cycles() == 50

    def test_partial_dac_phase_rounds_up(self):
        assert CrossbarConfig(input_bits=8, dac_bits=3).dac_phases == 3


class TestSerialization:
    def test_json_roundtrip_identity(self):
        cfg = paper_chip()
        assert ArchConfig.from_json(cfg.to_json()) == cfg

    def test_roundtrip_preserves_modifications(self):
        cfg = paper_chip().with_rob_size(12)
        again = ArchConfig.from_json(cfg.to_json())
        assert again.core.rob_size == 12

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ArchConfig.from_dict({"chip": {"mesh_rows": 2, "bogus": 1}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ArchConfig.from_dict({"flux_capacitor": True})

    def test_global_memory_xy_list_becomes_tuple(self):
        cfg = ArchConfig.from_dict({"chip": {"global_memory_xy": [1, 1]}})
        assert cfg.chip.global_memory_xy == (1, 1)

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "arch.json"
        cfg = small_chip()
        cfg.save(path)
        assert ArchConfig.load(path) == cfg


class TestValidation:
    def test_valid_defaults_pass(self):
        validate(ArchConfig())

    def test_negative_mesh_rejected(self):
        cfg = ArchConfig(chip=ChipConfig(mesh_rows=0))
        with pytest.raises(ConfigError, match="mesh_rows"):
            validate(cfg)

    def test_gmem_outside_mesh_rejected(self):
        cfg = ArchConfig(chip=ChipConfig(mesh_rows=2, mesh_cols=2,
                                         global_memory_xy=(5, 0)))
        with pytest.raises(ConfigError, match="global_memory_xy"):
            validate(cfg)

    def test_bad_mapping_name_rejected(self):
        cfg = ArchConfig()
        cfg = cfg.replaced(compiler=dataclasses.replace(
            cfg.compiler, mapping="fastest_first"))
        with pytest.raises(ConfigError, match="mapping"):
            validate(cfg)

    def test_dac_wider_than_input_rejected(self):
        cfg = ArchConfig(crossbar=CrossbarConfig(input_bits=4, dac_bits=8))
        with pytest.raises(ConfigError, match="dac_bits"):
            validate(cfg)

    def test_more_adcs_than_columns_rejected(self):
        cfg = ArchConfig(crossbar=CrossbarConfig(cols=4, adcs_per_crossbar=8))
        with pytest.raises(ConfigError, match="adcs_per_crossbar"):
            validate(cfg)

    def test_sync_window_one_rejected(self):
        cfg = ArchConfig(noc=NocConfig(sync_window=1))
        with pytest.raises(ConfigError, match="sync_window"):
            validate(cfg)

    def test_negative_energy_rejected(self):
        cfg = ArchConfig()
        cfg.energy.adc_pj_per_sample = -1.0
        with pytest.raises(ConfigError, match="adc_pj_per_sample"):
            validate(cfg)

    def test_error_message_lists_all_violations(self):
        cfg = ArchConfig(chip=ChipConfig(mesh_rows=0),
                         core=CoreConfig(rob_size=0))
        with pytest.raises(ConfigError) as err:
            validate(cfg)
        assert "mesh_rows" in str(err.value)
        assert "rob_size" in str(err.value)


#: values a hand-edited configuration file may hold in any field
HOSTILE = [None, "x", "8", -1, 0, 1, 2**40, 1.5, math.nan, True, [], {},
           [1], {"a": 1}]


def _leaves(data: dict, prefix: str = ""):
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


class TestDecoder:
    """Every field is checked against its annotation, once: a wrong type is
    a ``ConfigError`` naming the field, never a traceback or a run."""

    @pytest.mark.parametrize("path", list(_leaves(small_chip().to_dict())))
    def test_every_leaf_refuses_or_validates(self, path):
        section, _, name = path.rpartition(".")
        for value in HOSTILE:
            data = small_chip().to_dict()
            (data[section] if section else data)[name] = value
            try:
                validate(ArchConfig.from_dict(data))
            except ConfigError as exc:
                assert re.search(rf"\b{re.escape(path)}\b", str(exc)), \
                    (value, str(exc))

    @pytest.mark.parametrize("path, value", [
        ("core.rob_size", True), ("chip.mesh_rows", 1.5),
        ("core.rob_size", 8.0), ("energy.adc_pj_per_sample", math.inf),
        ("energy.adc_pj_per_sample", False), ("sim.max_cycles", 0),
        ("chip.global_memory_xy", [0]), ("chip.global_memory_xy", [0, 0.5]),
        ("compiler.mapping", "fastest_first"), ("crossbar.bit_sliced", 1),
    ])
    def test_ill_typed_values_are_refused(self, path, value):
        section, name = path.split(".")
        data = small_chip().to_dict()
        data[section][name] = value
        with pytest.raises(ConfigError, match=f"{path} must be "):
            validate(ArchConfig.from_dict(data))

    def test_a_float_field_takes_an_int(self):
        config = ArchConfig.from_dict({"energy": {"adc_pj_per_sample": 2},
                                       "sim": {"frequency_mhz": 500}})
        assert validate(config).energy.adc_pj_per_sample == 2

    def test_every_violation_is_named_with_its_field(self):
        config = ArchConfig(chip=ChipConfig(mesh_rows="2"),
                            noc=NocConfig(hop_cycles=None))
        assert field_errors(config) == {
            "chip.mesh_rows": "must be an integer >= 1, got '2'",
            "noc.hop_cycles": "must be an integer >= 1, got None"}

    def test_a_section_of_the_wrong_type_is_named(self):
        with pytest.raises(ConfigError, match="core must be an instance "
                                              "of CoreConfig, got 3"):
            validate(ArchConfig(core=3))


class TestPresets:
    def test_paper_chip_matches_section_iv(self):
        cfg = paper_chip()
        assert cfg.chip.n_cores == 64
        assert cfg.core.crossbars_per_core == 512
        assert cfg.crossbar.rows == 128
        assert cfg.crossbar.cols == 128

    def test_all_presets_valid(self):
        for name in PRESETS:
            validate(get_preset(name))

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="available"):
            get_preset("gigachip")

    def test_preset_kwargs_forwarded(self):
        assert get_preset("paper", rob_size=16).core.rob_size == 16

    def test_tiny_smaller_than_small(self):
        assert tiny_chip().chip.n_cores < small_chip().chip.n_cores

    def test_mnsim_preset_is_comm_bound(self):
        """The Fig. 5 preset uses a narrow NoC (see DESIGN.md)."""
        cfg = mnsim_like_chip()
        assert cfg.noc.link_bytes_per_cycle < NocConfig().link_bytes_per_cycle


class TestHelpers:
    def test_core_xy_row_major(self):
        cfg = paper_chip()
        assert cfg.core_xy(0) == (0, 0)
        assert cfg.core_xy(7) == (0, 7)
        assert cfg.core_xy(8) == (1, 0)
        assert cfg.core_xy(63) == (7, 7)

    def test_core_xy_out_of_range(self):
        with pytest.raises(ConfigError):
            paper_chip().core_xy(64)

    def test_with_rob_size_copies(self):
        cfg = paper_chip()
        other = cfg.with_rob_size(2)
        assert other.core.rob_size == 2
        assert cfg.core.rob_size != 2 or cfg is not other
        assert other.chip == cfg.chip

    def test_with_mapping_copies(self):
        cfg = paper_chip()
        other = cfg.with_mapping("utilization_first")
        assert other.compiler.mapping == "utilization_first"
        assert cfg.compiler.mapping == "performance_first"

    def test_scaled_cores(self):
        cfg = scaled(paper_chip(), cores=16)
        assert cfg.chip.n_cores == 16

    def test_scaled_rejects_non_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            scaled(paper_chip(), cores=12)

    def test_scaled_crossbars(self):
        cfg = scaled(paper_chip(), crossbars_per_core=64)
        assert cfg.core.crossbars_per_core == 64
