"""Tests for the public API, reports, sweeps and CLI."""

import json

import pytest

from repro import simulate
from repro.analysis import (
    ascii_bars,
    comm_ratios,
    energy_breakdown,
    normalize,
    nth_conv_layer,
    series_table,
    unit_breakdown,
)
from repro.config import small_chip, tiny_chip
from repro.engine import InvalidJobSpec
from repro.runner import compare_mappings, compare_with_baseline, sweep_rob
from repro.runner.cli import main
from tests.conftest import build_chain_net


@pytest.fixture(scope="module")
def chain_report():
    return simulate(build_chain_net(), small_chip())


class TestSimulateApi:
    def test_accepts_model_name(self):
        report = simulate("vgg8", small_chip())
        assert report.network == "vgg8"
        assert report.cycles > 0

    def test_accepts_graph(self, chain_report):
        assert chain_report.network == "chain"

    def test_mapping_override(self):
        report = simulate(build_chain_net(), small_chip(),
                          mapping="utilization_first")
        assert report.mapping == "utilization_first"

    def test_rob_override_changes_latency(self):
        wide = simulate(build_chain_net(), small_chip(), rob_size=16)
        narrow = simulate(build_chain_net(), small_chip(), rob_size=1)
        assert wide.cycles < narrow.cycles

    def test_default_config_is_paper_chip(self):
        report = simulate(build_chain_net())
        assert report.config_name == "paper-64core"

    def test_unknown_model_raises(self):
        with pytest.raises(InvalidJobSpec, match="nonexistent_net"):
            simulate("nonexistent_net", tiny_chip())


class TestReport:
    def test_derived_metrics_consistent(self, chain_report):
        r = chain_report
        assert r.seconds == pytest.approx(r.cycles * 1e-9)  # 1 GHz
        assert r.total_energy_pj == pytest.approx(sum(r.energy_pj.values()))
        assert r.avg_power_mw == pytest.approx(
            r.total_energy_pj * 1e-12 / r.seconds * 1e3)

    def test_comm_ratio_bounds(self, chain_report):
        for layer in chain_report.layer_names():
            assert 0.0 <= chain_report.comm_ratio(layer) <= 1.0

    def test_json_roundtrip(self, chain_report, tmp_path):
        path = tmp_path / "report.json"
        chain_report.save(path)
        data = json.loads(path.read_text())
        assert data["cycles"] == chain_report.cycles
        assert data["network"] == "chain"

    def test_summary_mentions_key_numbers(self, chain_report):
        text = chain_report.summary()
        assert f"{chain_report.cycles:,}" in text
        assert "uJ" in text


class TestSweeps:
    def test_compare_mappings_shape(self):
        cmp = compare_mappings(build_chain_net(), small_chip())
        assert cmp.utilization.mapping == "utilization_first"
        assert cmp.performance.mapping == "performance_first"
        assert cmp.latency_ratio > 0
        assert cmp.energy_ratio > 0

    def test_sweep_rob_normalization(self):
        sweep = sweep_rob(build_chain_net(), small_chip(), sizes=(1, 8))
        norm = sweep.normalized_latency()
        assert norm[1] == 1.0
        assert norm[8] <= 1.0

    def test_compare_with_baseline(self):
        cmp = compare_with_baseline(build_chain_net(), small_chip())
        assert cmp.baseline_cycles > 0
        assert cmp.latency_vs_baseline > 0
        assert cmp.baseline_comm_ratio


class TestAnalysis:
    def test_unit_breakdown_sums_layer_busy(self, chain_report):
        totals = unit_breakdown(chain_report)
        manual = 0
        for busy in chain_report.layer_busy.values():
            manual += sum(busy.values())
        assert sum(totals.values()) == manual

    def test_comm_ratios_keys(self, chain_report):
        ratios = comm_ratios(chain_report)
        assert set(ratios) == set(chain_report.layer_names())

    def test_energy_breakdown_sums_to_one(self, chain_report):
        shares = energy_breakdown(chain_report)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_nth_conv_layer(self, chain_report):
        assert nth_conv_layer(chain_report, 1) == "conv1"
        assert nth_conv_layer(chain_report, 2) == "conv2"
        with pytest.raises(IndexError):
            nth_conv_layer(chain_report, 99)

    def test_normalize_to_reference(self):
        out = normalize({"a": 2.0, "b": 4.0}, reference="a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_normalize_default_max(self):
        out = normalize({"a": 2.0, "b": 4.0})
        assert out["b"] == 1.0

    def test_normalize_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            normalize({"a": 0.0}, reference="a")

    def test_ascii_bars_renders_all_rows(self):
        text = ascii_bars({"one": 1.0, "two": 0.5}, title="t")
        assert "one" in text and "two" in text and "t" in text

    def test_ascii_bars_empty(self):
        assert "(no data)" in ascii_bars({})

    def test_series_table_alignment(self):
        text = series_table({"r1": {"c1": 1.0, "c2": 2.0},
                             "r2": {"c1": 3.0}})
        assert "c1" in text and "r2" in text
        assert "-" in text  # missing cell placeholder


class TestCli:
    def test_models_listing(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet18" in out

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        assert "paper" in capsys.readouterr().out

    def test_run_small(self, capsys):
        assert main(["run", "--model", "vgg8", "--preset", "small"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_run_writes_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["run", "--model", "vgg8", "--preset", "small",
                     "--json", str(path)]) == 0
        assert json.loads(path.read_text())["network"] == "vgg8"

    def test_compile_listing(self, capsys):
        assert main(["compile", "--model", "vgg8", "--preset", "small",
                     "--listing", "5"]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out

    def test_config_file_loading(self, tmp_path, capsys):
        cfg = small_chip()
        path = tmp_path / "arch.json"
        cfg.save(path)
        assert main(["run", "--model", "vgg8", "--config", str(path)]) == 0
        assert "small-16core" in capsys.readouterr().out
