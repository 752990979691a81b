"""CLI subcommand coverage (beyond the basic run/compile smoke tests)."""

import json

import pytest

from repro import JobSpec, simulate
from repro.config import small_chip, tiny_chip
from repro.engine import PoolUnavailable, save_specs
from repro.runner.cli import (
    BATCH_EXIT_FATAL,
    BATCH_EXIT_JOB_FAILURES,
    BATCH_EXIT_OK,
    build_parser,
    main,
)


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
        capsys.readouterr()

    def test_serve_has_no_session_bound(self, capsys):
        """One engine serves every configuration: --workers is the only
        process bound, and the removed flag is refused, not ignored."""
        with pytest.raises(SystemExit) as info:
            main(["serve", "--store", "s.jsonl", "--max-sessions", "2"])
        assert info.value.code == 2
        assert "--max-sessions" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--model", "mlp", "--preset", "tiny", "--batch", "0"],
         "must be an integer >= 1, got 0"),
        (["run", "--model", "mlp", "--preset", "tiny", "--rob", "0"],
         "must be an integer >= 1, got 0"),
        (["run", "--model", "mlp", "--preset", "tiny", "--shards", "0"],
         "must be an integer >= 1, got 0"),
        (["compile", "--model", "mlp", "--preset", "tiny", "--shards", "0"],
         "must be an integer >= 1, got 0"),
        (["compile", "--model", "mlp", "--preset", "tiny", "--listing", "-1"],
         "must be >= 0, got -1"),
        (["mappings", "--model", "mlp", "--preset", "tiny", "--rob", "0"],
         "must be an integer >= 1, got 0"),
        (["decode", "--model", "gpt_tiny", "--preset", "tiny", "--steps", "0"],
         "must be an integer >= 1, got 0"),
        (["decode", "--model", "gpt_tiny", "--preset", "small",
          "--steps", "1", "--kv-tokens", "0"],
         "must be an integer >= 1, got 0"),
        (["tune", "mlp", "--preset", "tiny", "--top-k", "0"],
         "must be >= 1, got 0"),
        (["mappings", "--model", "mlp", "--preset", "tiny", "--workers", "0"],
         "must be >= 1, got 0"),
        (["rob", "--model", "mlp", "--preset", "tiny", "--workers", "0"],
         "must be >= 1, got 0"),
        (["batch", "jobs.json", "--workers", "-2"], "must be >= 1, got -2"),
        (["batch", "jobs.json", "--max-retries", "-1"],
         "must be >= 0, got -1"),
        (["batch", "jobs.json", "--workers", "2", "--timeout", "-5"],
         "must be > 0 and finite, got -5"),
        (["serve", "--store", "s.jsonl", "--workers", "0"],
         "must be >= 1, got 0"),
        (["serve", "--store", "s.jsonl", "--max-retries", "-1"],
         "must be >= 0, got -1"),
        (["serve", "--store", "s.jsonl", "--timeout", "0"],
         "must be > 0 and finite, got 0"),
        (["serve", "--store", "s.jsonl", "--max-backlog", "0"],
         "must be >= 1, got 0"),
        (["serve", "--store", "s.jsonl", "--max-restarts", "-1"],
         "must be >= 0, got -1"),
        (["serve", "--store", "s.jsonl", "--drain-timeout", "nan"],
         "must be >= 0 and finite, got nan"),
        (["decode", "--model", "gpt_tiny", "--preset", "tiny",
          "--workers", "0"],
         "must be >= 1, got 0"),
        (["tune", "mlp", "--preset", "tiny", "--workers", "0"],
         "must be >= 1, got 0"),
        (["run", "--preset", "tiny", "--model", "nope"],
         "invalid choice: 'nope'"),
        (["run", "--model", "mlp", "--preset", "nope"],
         "invalid choice: 'nope'"),
        (["serve", "--store", "s.jsonl", "--port", "-1"],
         "must be >= 0, got -1"),
        (["serve", "--store", "s.jsonl", "--port", "65536"],
         "must be <= 65535, got 65536"),
        (["rob", "--model", "mlp", "--preset", "tiny", "--sizes", "a,4"],
         "invalid comma-separated integers: 'a,4'"),
        (["rob", "--model", "mlp", "--preset", "tiny", "--sizes", "0,4"],
         "must be an integer >= 1, got 0"),
    ], ids=["run-batch", "run-rob", "run-shards", "compile-shards",
            "compile-listing", "mappings-rob", "decode-steps",
            "decode-kv-tokens", "tune-top-k", "mappings-workers",
            "rob-workers", "batch-workers", "batch-max-retries",
            "batch-timeout", "serve-workers", "serve-max-retries",
            "serve-timeout", "serve-max-backlog", "serve-max-restarts",
            "serve-drain-timeout", "decode-workers", "tune-workers",
            "run-model", "run-preset", "serve-port-negative",
            "serve-port-too-large", "rob-sizes-not-integers",
            "rob-sizes-zero"])
    def test_non_positive_count_is_a_usage_error(self, argv, message, capsys):
        """A count or duration flag below its minimum is refused before
        anything runs (exit 2, a usage line naming the flag), not by a
        traceback from the run or a run that ignores it.  A job field's
        flag is checked by ``JobSpec.validate()``, every other flag by its
        argparse type."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {argv[-2]}: {message}" in err

    @pytest.mark.parametrize("argv", [
        ["compile", "--model", "nope"], ["mappings", "--model", "nope"],
        ["rob", "--model", "nope"], ["mnsim", "--model", "nope"],
        ["decode", "--model", "nope"], ["tune", "nope"],
        ["tune", "mlp", "--preset", "nope"],
        ["decode", "--model", "gpt_tiny", "--preset", "nope"],
        ["batch", "jobs.json", "--preset", "nope"],
        ["serve", "--store", "s.jsonl", "--preset", "nope"],
    ], ids=["compile-model", "mappings-model", "rob-model", "mnsim-model",
            "decode-model", "tune-network", "tune-preset", "decode-preset",
            "batch-preset", "serve-preset"])
    def test_unknown_model_or_preset_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compile"])
    def test_shards_past_the_chip_are_a_usage_error(self, command, capsys):
        """``--shards`` above the configuration's cores is refused before
        anything runs: a usage error naming the flag, not a traceback."""
        with pytest.raises(SystemExit) as info:
            main([command, "--model", "vit_tiny", "--preset", "tiny",
                  "--shards", "100"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        assert ("argument --shards: must be <= 4, the core count of "
                "tiny-4core, got 100") in err

    def test_zero_drain_timeout_is_accepted(self):
        args = build_parser().parse_args(
            ["serve", "--store", "s.jsonl", "--drain-timeout", "0"])
        assert args.drain_timeout == 0.0

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--model", "vgg8"])
        assert args.preset == "paper"
        assert args.batch == 1
        assert args.rob is None


class TestSubcommands:
    def test_mappings(self, capsys):
        assert main(["mappings", "--model", "vgg8", "--preset", "small"]) == 0
        out = capsys.readouterr().out
        assert "utilization-first" in out
        assert "performance-first" in out

    def test_mappings_honours_imagenet(self, capsys):
        """``--imagenet`` reaches the comparison: the printed cycles are
        those of the 224x224 graph (resnet18 is the cheapest zoo network
        whose cycles change with input size on the small chip)."""
        from repro import build_model, compare_mappings, small_chip

        assert main(["mappings", "--model", "resnet18", "--preset", "small",
                     "--fidelity", "fast", "--imagenet"]) == 0
        out = capsys.readouterr().out
        cmp = compare_mappings(build_model("resnet18", imagenet=True),
                               small_chip(), fidelity="fast")
        assert (f"utilization-first {cmp.utilization.cycles:,} cycles, "
                f"performance-first {cmp.performance.cycles:,} cycles") in out

    @pytest.mark.parametrize("command, helper", [
        ("rob", "sweep_rob"), ("mnsim", "compare_with_baseline")])
    def test_sweeps_receive_the_imagenet_graph(self, command, helper,
                                               monkeypatch):
        """``rob`` and ``mnsim`` hand their helper the graph ``--imagenet``
        selects (the helper is stubbed: only the hand-over is checked)."""
        from repro.engine import default_engine
        from repro.runner import cli

        received = []

        def stub(network, *args, **kwargs):
            received.append(network)
            raise SystemExit(0)

        monkeypatch.setattr(cli, helper, stub)
        with pytest.raises(SystemExit):
            main([command, "--model", "resnet18", "--imagenet"])
        assert received == [default_engine().resolve_network(
            "resnet18", imagenet=True)]

    def test_rob_sweep(self, capsys):
        assert main(["rob", "--model", "vgg8", "--preset", "small",
                     "--sizes", "1,8"]) == 0
        out = capsys.readouterr().out
        assert "ROB  1" in out
        assert "ROB  8" in out

    def test_mnsim_comparison(self, capsys):
        assert main(["mnsim", "--model", "vgg8"]) == 0
        out = capsys.readouterr().out
        assert "MNSIM2.0-style" in out
        assert "ours" in out

    def test_run_with_batch_reports_throughput(self, capsys):
        assert main(["run", "--model", "vgg8", "--preset", "small",
                     "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "images/s" in out

    def test_run_full_report(self, capsys):
        assert main(["run", "--model", "vgg8", "--preset", "small",
                     "--full-report"]) == 0
        out = capsys.readouterr().out
        assert "per-layer activity" in out
        assert "per-core activity" in out

    def test_run_rob_override(self, capsys):
        assert main(["run", "--model", "vgg8", "--preset", "small",
                     "--rob", "2"]) == 0
        capsys.readouterr()

    def test_compile_without_listing(self, capsys):
        assert main(["compile", "--model", "mlp", "--preset", "small"]) == 0
        out = capsys.readouterr().out
        assert "chip program" in out

    def test_json_report_includes_hotspots(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["run", "--model", "mlp", "--preset", "small",
                     "--json", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert "hottest_links" in data["noc"]

    def test_run_accepts_shards_flag(self, capsys):
        assert main(["run", "--model", "mlp", "--preset", "small",
                     "--shards", "1"]) == 0
        capsys.readouterr()

    def test_decode_single_request(self, tmp_path, capsys):
        path = tmp_path / "decode.json"
        assert main(["decode", "--model", "gpt_tiny", "--preset", "tiny",
                     "--steps", "4", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4 steps" in out
        assert "p50=" in out and "p99=" in out
        assert "1 template compile(s)" in out
        data = json.loads(path.read_text())
        assert len(data["meta"]["decode"]["step_cycles"]) == 4

    def test_decode_mix_beyond_kv_capacity_is_refused(self, tmp_path,
                                                     capsys):
        """A mix request past the KV cache is refused before anything runs:
        one stderr line (exit 2), not a traceback from its sixth step."""
        path = tmp_path / "mix.json"
        save_specs([JobSpec("mlp"),
                    JobSpec("gpt_tiny", decode_steps=10, kv_tokens=60)], path)
        assert main(["decode", "--mix", str(path), "--preset", "tiny"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"pimsim decode: --mix {path}: decode_steps must be <= 5 from KV "
            "extent 60 (the KV capacity of gpt_tiny is 64), got 10\n")
        assert captured.out == ""

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file or directory"),
        ("not json", "Expecting value"),
        ('{"core": {"rob_size": 0}}',
         "core.rob_size must be an integer >= 1, got 0"),
    ], ids=["missing", "not-json", "invalid-config"])
    @pytest.mark.parametrize("argv", [
        ["run", "--model", "mlp"], ["compile", "--model", "mlp"],
        ["mappings", "--model", "mlp"], ["decode", "--model", "gpt_tiny"],
        ["tune", "mlp"],
    ], ids=["run", "compile", "mappings", "decode", "tune"])
    def test_bad_config_file_is_refused_in_one_line(self, tmp_path, capsys,
                                                    argv, content, reason):
        """A ``--config`` file that is missing, is not JSON or is not a
        valid configuration is one stderr line (exit 2) for every
        subcommand that reads one, not a traceback."""
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"pimsim {argv[0]}: --config {path}: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_decode_mix_from_spec_file(self, tmp_path, capsys):
        specs = [JobSpec("gpt_tiny", decode_steps=3), JobSpec("mlp")]
        save_specs(specs, tmp_path / "mix.json")
        assert main(["decode", "--mix", str(tmp_path / "mix.json"),
                     "--preset", "tiny", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 requests" in out
        assert "3 decode steps" in out
        assert "p50=" in out and "p99=" in out

    def test_decode_fidelity_flag(self, tmp_path, capsys):
        """``--fidelity`` reaches the single request and every mix
        request, including one that carries its own configuration."""
        path = tmp_path / "decode.json"
        assert main(["decode", "--model", "gpt_tiny", "--preset", "tiny",
                     "--steps", "3", "--fidelity", "fast",
                     "--json", str(path)]) == 0
        assert json.loads(path.read_text())["fidelity"] == "fast"
        specs = [JobSpec("gpt_tiny", decode_steps=3), JobSpec("mlp"),
                 JobSpec("mlp", small_chip())]
        save_specs(specs, tmp_path / "mix.json")
        cycles = {}
        for workers in ("1", "2"):
            out = tmp_path / f"mix{workers}.json"
            assert main(["decode", "--mix", str(tmp_path / "mix.json"),
                         "--preset", "tiny", "--fidelity", "fast",
                         "--workers", workers, "--json", str(out)]) == 0
            reports = json.loads(out.read_text())["reports"]
            assert [r["fidelity"] for r in reports] == ["fast"] * 3
            cycles[workers] = [r["cycles"] for r in reports]
        capsys.readouterr()
        assert cycles["1"] == cycles["2"]

    @pytest.mark.parametrize("flags, message", [
        (["--model", "gpt_tiny", "--kv-tokens", "100", "--steps", "1"],
         "argument --kv-tokens: must be <= 64, the KV capacity of gpt_tiny, "
         "got 100"),
        (["--model", "gpt_tiny", "--steps", "100"],
         "argument --steps: must be <= 57 from KV extent 8 (the KV capacity "
         "of gpt_tiny is 64), got 100"),
        (["--model", "mlp"],
         "argument --model: must have kv_cache nodes for decode_steps (one "
         "of ['gpt_tiny']), got 'mlp'"),
    ], ids=["kv-tokens", "steps", "no-kv-cache"])
    def test_decode_beyond_kv_capacity_is_refused(self, flags, message,
                                                  capsys):
        """Extents past the KV cache, or a model without one, are refused
        up front as a usage error naming the flag (exit 2), not by a
        traceback from the first or the last step."""
        with pytest.raises(SystemExit) as info:
            main(["decode", "--preset", "tiny", *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f"pimsim: error: {message}\n")
        assert captured.out == ""

    def test_decode_up_to_kv_capacity_runs(self, capsys):
        assert main(["decode", "--model", "gpt_tiny", "--preset", "tiny",
                     "--kv-tokens", "62", "--steps", "3"]) == 0
        assert "3 steps" in capsys.readouterr().out

    def test_decode_requires_model_xor_mix(self, capsys):
        assert main(["decode", "--preset", "tiny"]) == 2
        err = capsys.readouterr().err
        assert "exactly one of --model or --mix" in err


class TestBatch:
    """``pimsim batch``: spec file in, one JSON report per line out."""

    def _spec_file(self, tmp_path, specs):
        path = tmp_path / "jobs.json"
        save_specs(specs, path)
        return path

    def test_emits_one_report_per_line(self, tmp_path, capsys):
        specs = [JobSpec("mlp", tiny_chip(), rob_size=1, tag="a"),
                 JobSpec("mlp", tiny_chip(), rob_size=8, tag="b")]
        out = tmp_path / "reports.jsonl"
        assert main(["batch", str(self._spec_file(tmp_path, specs)),
                     "--output", str(out)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   out.read_text().splitlines()]
        summary = records.pop()["summary"]
        assert summary["jobs"] == 2 and summary["ok"] == 2
        assert summary["failed"] == 0
        assert [r["index"] for r in records] == [0, 1]
        for record, spec in zip(records, specs):
            assert record["report"]["meta"]["sweep_tag"] == spec.tag
            assert (record["report"]["cycles"]
                    == simulate(spec.network, spec.config,
                                rob_size=spec.rob_size).cycles)

    def test_emitted_spec_round_trips(self, tmp_path, capsys):
        """Every JSONL line fully reproduces its own experiment."""
        specs = [JobSpec("mlp", tiny_chip(), rob_size=2)]
        out = tmp_path / "reports.jsonl"
        assert main(["batch", str(self._spec_file(tmp_path, specs)),
                     "--output", str(out)]) == 0
        capsys.readouterr()
        record = json.loads(out.read_text().splitlines()[0])
        replayed = JobSpec.from_dict(record["spec"])
        report = simulate(replayed.network, replayed.config,
                          rob_size=replayed.rob_size)
        assert report.cycles == record["report"]["cycles"]
        assert (report.total_energy_pj
                == record["report"]["total_energy_pj"])

    def test_configless_spec_records_effective_preset(self, tmp_path,
                                                      capsys):
        """Specs that used the CLI's --preset default replay identically
        from their emitted line (the preset is made explicit)."""
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"network": "mlp"}]))
        out = tmp_path / "r.jsonl"
        assert main(["batch", str(path), "--preset", "tiny",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        record = json.loads(out.read_text().splitlines()[0])
        assert record["spec"]["config"] == "tiny"
        replayed = JobSpec.from_dict(record["spec"])
        assert (simulate(replayed.network, replayed.config).cycles
                == record["report"]["cycles"])

    def test_failures_exit_nonzero_with_error_records(self, tmp_path,
                                                      capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"network": "mlp", "config": "tiny"},
                                    {"network": "nosuch", "config": "tiny"}]))
        assert main(["batch", str(path)]) == 1
        captured = capsys.readouterr()
        lines = [json.loads(line)
                 for line in captured.out.splitlines() if line]
        records = {r["index"]: r for r in lines if "index" in r}
        assert "report" in records[0]
        assert records[1]["error"]["kind"] == "InvalidJobSpec"
        assert lines[-1]["summary"]["failed"] == 1
        assert "1 failed" in captured.err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_invalid_lines_are_their_jobs_error_records(self, tmp_path,
                                                        capsys, workers):
        """Every line goes through ``JobSpec.validate()`` (``Engine.run``
        calls it, in-process and in pool workers): a line it refuses is
        that job's ``InvalidJobSpec`` record, and the other lines run."""
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([
            {"network": "mlp", "config": "tiny"},
            {"network": "mlp", "config": "tiny", "imagenet": "yes"},
            {"network": "mlp", "config": "tiny", "rob_size": "8"},
            {"network": "mlp", "config": 3},
            {"network": "mlp", "config": "tiny", "rob_size": 8}]))
        assert main(["batch", str(path), "--workers", workers]) == 1
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        records = {r["index"]: r for r in lines if "index" in r}
        assert records[0]["report"]["cycles"] > 0
        assert records[4]["report"]["cycles"] > 0
        for index, field in ((1, "imagenet"), (2, "rob_size"),
                             (3, "config")):
            error = records[index]["error"]
            assert error["kind"] == "InvalidJobSpec"
            assert error["message"].startswith(f"{field} must be")
        assert lines[-1]["summary"]["ok"] == 2
        assert lines[-1]["summary"]["failed"] == 3

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file or directory"),
        ("not json", "Expecting value"),
        ('[{"network": "mlp", "bogus": 1}]', "unknown keys ['bogus']"),
    ], ids=["missing", "not-json", "unknown-key"])
    def test_malformed_spec_file_is_refused_in_one_line(
            self, tmp_path, capsys, content, reason):
        """A spec file that is missing, is not JSON or holds an unknown key
        is one stderr line (exit 2), not a traceback."""
        path = tmp_path / "jobs.json"
        if content is not None:
            path.write_text(content)
        assert main(["batch", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"pimsim batch: {path}: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_shards_past_the_chip_are_error_records(self, tmp_path, capsys):
        """A shard count above the cores of the chip a line runs on (its
        own configuration, else ``--preset``) is that line's
        ``InvalidJobSpec`` record; the other lines run."""
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([
            {"network": "mlp", "attention_shards": 5},
            {"network": "mlp", "config": "small", "attention_shards": 17},
            {"network": "mlp", "config": "small", "attention_shards": 5}]))
        assert main(["batch", str(path), "--preset", "tiny"]) == 1
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        records = {r["index"]: r for r in lines if "index" in r}
        for index, cores in ((0, "4, the core count of tiny-4core"),
                             (1, "16, the core count of small-16core")):
            assert records[index]["error"] == {
                "kind": "InvalidJobSpec",
                "message": f"attention_shards must be <= {cores}, got "
                           f"{records[index]['spec']['attention_shards']}"}
        assert records[2]["report"]["cycles"] > 0

    def test_fidelity_flag_reaches_every_job(self, tmp_path, capsys):
        """``--fidelity`` runs every job at that tier, serial and pooled,
        and each line makes it explicit after the preset."""
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"network": "mlp"},
                                    {"network": "mlp", "config": "tiny"}]))
        lines = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.jsonl"
            assert main(["batch", str(path), "--preset", "small",
                         "--fidelity", "fast", "--workers", workers,
                         "--output", str(out)]) == 0
            lines[workers] = out.read_text().splitlines()
        capsys.readouterr()
        records = [json.loads(line) for line in lines["1"]]
        assert records.pop()["summary"]["ok"] == 2
        assert [r["report"]["fidelity"] for r in records] == ["fast"] * 2
        assert [list(r["spec"]) for r in records] == [
            ["network", "config", "fidelity"]] * 2
        assert [r["id"] for r in records] == ["j1393aba3a33878b4a27ef9f6",
                                              "j7e31191c848ae5bb2eea60f5"]

        def settled(text_lines):
            # the compile-cache counters are per process, so they differ
            # between one in-process engine and two pool workers
            out = set()
            for line in text_lines:
                record = json.loads(line)
                for key in ("compile_cache_hits", "compile_cache_misses"):
                    record.get("report", {}).get("meta", {}).pop(key, None)
                out.add(json.dumps(record))
            return out

        assert settled(lines["1"]) == settled(lines["2"])

    def test_batch_flag_defaults(self):
        args = build_parser().parse_args(["batch", "jobs.json"])
        assert args.resume is False
        assert args.max_retries == 1
        assert args.timeout is None

    def test_parallel_matches_serial(self, tmp_path, capsys):
        specs = [JobSpec("mlp", tiny_chip(), rob_size=size)
                 for size in (1, 4)]
        path = self._spec_file(tmp_path, specs)
        serial_out = tmp_path / "serial.jsonl"
        parallel_out = tmp_path / "parallel.jsonl"
        assert main(["batch", str(path), "--output", str(serial_out)]) == 0
        assert main(["batch", str(path), "--workers", "2",
                     "--output", str(parallel_out)]) == 0
        capsys.readouterr()

        def cycles_by_index(text):
            return {r["index"]: r["report"]["cycles"] for r in
                    (json.loads(line) for line in text.splitlines())
                    if "index" in r}

        assert (cycles_by_index(serial_out.read_text())
                == cycles_by_index(parallel_out.read_text()))


class TestBatchResume:
    """``pimsim batch --resume``: the output file is a journal."""

    def _spec_file(self, tmp_path, n):
        path = tmp_path / "jobs.json"
        save_specs([JobSpec("mlp", tiny_chip(), rob_size=size, tag=str(size))
                    for size in range(1, n + 1)], path)
        return path

    @staticmethod
    def _records(path):
        """Per-job records only (the trailing summary line is not one)."""
        return [r for r in
                (json.loads(line) for line in path.read_text().splitlines())
                if "index" in r]

    @staticmethod
    def _summary(path):
        return json.loads(path.read_text().splitlines()[-1])["summary"]

    def test_resume_runs_only_missing_indices(self, tmp_path, capsys):
        """Truncate a finished journal to k lines; --resume appends
        exactly N-k records and the union equals an uninterrupted run."""
        specfile = self._spec_file(tmp_path, 4)
        journal = tmp_path / "run.jsonl"
        assert main(["batch", str(specfile), "--output", str(journal)]) == 0
        full = self._records(journal)
        assert len(full) == 4

        kept = full[:2]
        journal.write_text(
            "".join(json.dumps(r) + "\n" for r in kept))
        assert main(["batch", str(specfile), "--output", str(journal),
                     "--resume"]) == 0
        err = capsys.readouterr().err
        assert "(2 resumed from the journal)" in err

        merged = self._records(journal)
        assert len(merged) == 4, "resume must append only the missing jobs"
        assert merged[:2] == kept, "resume must append, not rewrite"
        by_index = {r["index"]: r for r in merged}
        assert sorted(by_index) == [0, 1, 2, 3]
        assert ({i: r["report"]["cycles"] for i, r in by_index.items()}
                == {r["index"]: r["report"]["cycles"] for r in full})
        assert self._summary(journal)["resumed"] == 2

    def test_resume_with_complete_journal_runs_nothing(self, tmp_path,
                                                       capsys):
        specfile = self._spec_file(tmp_path, 2)
        journal = tmp_path / "run.jsonl"
        assert main(["batch", str(specfile), "--output", str(journal)]) == 0
        before = journal.read_text()
        assert main(["batch", str(specfile), "--output", str(journal),
                     "--resume"]) == 0
        capsys.readouterr()
        assert journal.read_text() == before

    def test_resume_skips_torn_and_foreign_lines(self, tmp_path, capsys):
        """A line torn mid-write (previous run died) does not count as
        completed — that job reruns."""
        specfile = self._spec_file(tmp_path, 3)
        journal = tmp_path / "run.jsonl"
        assert main(["batch", str(specfile), "--output", str(journal)]) == 0
        records = self._records(journal)
        # The torn final line has NO trailing newline — exactly what a
        # kill mid-write leaves behind.  Resume must terminate it before
        # appending, or the first new record concatenates onto it and
        # both lines are lost.
        journal.write_text(json.dumps(records[0]) + "\n"
                           + "# not json\n"
                           + json.dumps(records[1])[:20])
        assert main(["batch", str(specfile), "--output", str(journal),
                     "--resume"]) == 0
        capsys.readouterr()
        parsed = []
        for line in journal.read_text().splitlines():
            try:
                parsed.append(json.loads(line))
            except ValueError:
                continue  # the torn/foreign lines are still in the file
        assert sorted(r["index"] for r in parsed if "report" in r) \
            == [0, 1, 2]

    def test_resume_counts_journaled_errors_as_failures(self, tmp_path,
                                                        capsys):
        """Error records in the journal are settled (not retried by
        --resume) and keep the exit code honest."""
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"network": "mlp", "config": "tiny"},
                                    {"network": "nosuch", "config": "tiny"}]))
        journal = tmp_path / "run.jsonl"
        assert main(["batch", str(path), "--output", str(journal)]) == 1
        assert main(["batch", str(path), "--output", str(journal),
                     "--resume"]) == 1
        err = capsys.readouterr().err
        assert "(2 resumed from the journal)" in err
        assert "1 failed" in err
        assert len(self._records(journal)) == 2

    def test_resume_requires_output(self, tmp_path, capsys):
        specfile = self._spec_file(tmp_path, 1)
        assert main(["batch", str(specfile), "--resume"]) == 2
        assert "--resume requires --output" in capsys.readouterr().err

    def test_resume_ignores_out_of_range_indices(self, tmp_path, capsys):
        """A journal from a longer spec file cannot mask jobs that do not
        exist in this one — stale high indices are dropped."""
        specfile = self._spec_file(tmp_path, 2)
        journal = tmp_path / "run.jsonl"
        journal.write_text(json.dumps({"index": 7, "report": {}}) + "\n")
        assert main(["batch", str(specfile), "--output", str(journal),
                     "--resume"]) == 0
        capsys.readouterr()
        assert sorted(r["index"] for r in self._records(journal)
                      if "report" in r and r["report"]) == [0, 1]


    # -- resume is keyed by job id, not by position in the spec file --------

    @staticmethod
    def _write_specs(tmp_path, dicts):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(dicts))
        return path

    def test_editing_one_spec_reruns_exactly_that_job(self, tmp_path,
                                                      capsys):
        dicts = [{"network": "mlp", "config": "tiny", "rob_size": size}
                 for size in (1, 2)]
        specfile = self._write_specs(tmp_path, dicts)
        journal = tmp_path / "run.jsonl"
        assert main(["batch", str(specfile), "--output", str(journal)]) == 0
        capsys.readouterr()
        dicts[0]["network"] = "lenet5"
        self._write_specs(tmp_path, dicts)
        assert main(["batch", str(specfile), "--output", str(journal),
                     "--resume"]) == 0
        err = capsys.readouterr().err
        assert "(1 resumed from the journal)" in err
        assert "1 journal record(s) match no job" in err
        records = self._records(journal)
        assert [(r["index"], r["spec"]["network"]) for r in records] == [
            (0, "mlp"), (1, "mlp"), (0, "lenet5")]
        assert records[-1]["report"]["network"] == "lenet5"
        assert records[-1]["id"] == JobSpec.from_dict(dicts[0]).job_id()
        assert self._summary(journal)["resumed"] == 1

    def test_reordering_the_spec_file_reruns_nothing(self, tmp_path,
                                                     capsys):
        dicts = [{"network": "mlp", "config": "tiny", "rob_size": size}
                 for size in (1, 2, 4)]
        specfile = self._write_specs(tmp_path, dicts)
        journal = tmp_path / "run.jsonl"
        assert main(["batch", str(specfile), "--output", str(journal)]) == 0
        before = journal.read_text()
        self._write_specs(tmp_path, dicts[::-1])
        assert main(["batch", str(specfile), "--output", str(journal),
                     "--resume"]) == 0
        err = capsys.readouterr().err
        assert "(3 resumed from the journal)" in err
        assert "match no job" not in err
        assert journal.read_text() == before

    def test_duplicated_spec_is_skipped_once_per_journaled_copy(
            self, tmp_path, capsys):
        spec = {"network": "mlp", "config": "tiny"}
        specfile = self._write_specs(tmp_path, [spec])
        journal = tmp_path / "run.jsonl"
        assert main(["batch", str(specfile), "--output", str(journal)]) == 0
        self._write_specs(tmp_path, [spec, spec, spec])
        assert main(["batch", str(specfile), "--output", str(journal),
                     "--resume"]) == 0
        assert "(1 resumed from the journal)" in capsys.readouterr().err
        assert [r["index"] for r in self._records(journal)] == [0, 1, 2]
        # ...and every copy is journaled now: a third run has nothing to do
        before = journal.read_text()
        assert main(["batch", str(specfile), "--output", str(journal),
                     "--resume"]) == 0
        assert "(3 resumed from the journal)" in capsys.readouterr().err
        assert journal.read_text() == before

    def test_resume_under_another_preset_reruns_configless_specs(
            self, tmp_path, capsys):
        """The emitted spec makes the preset explicit, so the id does
        too: a result computed on one chip never stands in for another."""
        specfile = self._write_specs(tmp_path, [
            {"network": "mlp"}, {"network": "mlp", "rob_size": 2}])
        journal = tmp_path / "run.jsonl"
        assert main(["batch", str(specfile), "--preset", "tiny",
                     "--output", str(journal)]) == 0
        capsys.readouterr()
        assert main(["batch", str(specfile), "--preset", "small",
                     "--output", str(journal), "--resume"]) == 0
        err = capsys.readouterr().err
        assert "(0 resumed from the journal)" in err
        assert "2 journal record(s) match no job" in err
        records = self._records(journal)
        assert [(r["index"], r["spec"]["config"]) for r in records] == [
            (0, "tiny"), (1, "tiny"), (0, "small"), (1, "small")]
        assert records[2]["report"]["cycles"] != records[0]["report"]["cycles"]

    def test_resumes_a_record_written_before_ids_existed(self, tmp_path,
                                                         capsys):
        """A literal line of the previous journal format: no ``id``, so
        the job identity is derived from the record's ``spec``."""
        specfile = self._write_specs(tmp_path, [
            {"network": "mlp", "rob_size": 2}, {"network": "mlp"}])
        journal = tmp_path / "run.jsonl"
        journal.write_text(
            '{"index": 0, "spec": {"network": "mlp", "rob_size": 2, '
            '"config": "tiny"}, "report": {"cycles": 1}}\n'
            '{"summary": {"jobs": 1, "ok": 1, "failed": 0, "resumed": 0, '
            '"retried": 0, "poisoned": 0, "timeouts": 0}}\n')
        assert main(["batch", str(specfile), "--preset", "tiny",
                     "--output", str(journal), "--resume"]) == 0
        err = capsys.readouterr().err
        assert "(1 resumed from the journal)" in err
        assert "match no job" not in err
        assert [r["index"] for r in self._records(journal)] == [0, 1]
        assert self._records(journal)[0]["report"] == {"cycles": 1}


class TestBatchSummary:
    """The trailing ``{"summary": ...}`` line: batch-level accounting."""

    def test_summary_trails_the_journal_with_counts(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"network": "mlp", "config": "tiny"},
                                    {"network": "nosuch", "config": "tiny"}]))
        out = tmp_path / "run.jsonl"
        assert main(["batch", str(path), "--output", str(out)]) == 1
        capsys.readouterr()
        summary = json.loads(out.read_text().splitlines()[-1])["summary"]
        assert summary == {"jobs": 2, "ok": 1, "failed": 1, "resumed": 0,
                           "retried": 0, "poisoned": 0, "timeouts": 0}

    def test_pooled_run_reports_pool_counters(self, tmp_path, capsys):
        """A worker crash surfaces in the summary's retry accounting."""
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([
            {"network": "mlp", "config": "tiny",
             "faults": {"mode": "crash", "attempts": [0]}},
            {"network": "mlp", "config": "tiny", "rob_size": 2}]))
        out = tmp_path / "run.jsonl"
        assert main(["batch", str(path), "--workers", "2",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads(out.read_text().splitlines()[-1])["summary"]
        assert summary["ok"] == 2 and summary["failed"] == 0
        assert summary["retried"] == 1, \
            "the crash-then-retry must show up in the summary"

    def test_summary_alone_never_masks_pending_jobs(self, tmp_path, capsys):
        """--resume must not mistake a summary line for completed work."""
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"network": "mlp", "config": "tiny"}]))
        journal = tmp_path / "run.jsonl"
        journal.write_text(json.dumps({"summary": {"jobs": 1, "ok": 1}})
                           + "\n")
        assert main(["batch", str(path), "--output", str(journal),
                     "--resume"]) == 0
        capsys.readouterr()
        records = [r for r in
                   (json.loads(line)
                    for line in journal.read_text().splitlines())
                   if "index" in r]
        assert [r["index"] for r in records] == [0], \
            "the job must run despite the stale summary line"


class TestBatchExitCodes:
    """The documented contract: 0 = all jobs ok, 1 = some jobs failed,
    2 = fatal (bad invocation or unrecoverable pool)."""

    def test_success_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        save_specs([JobSpec("mlp", tiny_chip())], path)
        assert main(["batch", str(path)]) == BATCH_EXIT_OK
        capsys.readouterr()

    def test_job_failures_exit_one(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"network": "nosuch",
                                     "config": "tiny"}]))
        assert main(["batch", str(path)]) == BATCH_EXIT_JOB_FAILURES
        capsys.readouterr()

    def test_unrecoverable_pool_exits_two(self, tmp_path, capsys,
                                          monkeypatch):
        import repro.runner.cli as cli

        class DoomedEngine:
            def __init__(self, *a, **kw):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def as_completed(self, specs, **kw):
                raise PoolUnavailable("every respawn failed")
                yield  # pragma: no cover

        monkeypatch.setattr(cli, "Engine", DoomedEngine)
        path = tmp_path / "jobs.json"
        save_specs([JobSpec("mlp", tiny_chip())], path)
        assert main(["batch", str(path)]) == BATCH_EXIT_FATAL
        assert "worker pool unrecoverable" in capsys.readouterr().err

    def test_codes_are_distinct_and_pinned(self):
        assert (BATCH_EXIT_OK, BATCH_EXIT_JOB_FAILURES,
                BATCH_EXIT_FATAL) == (0, 1, 2)
