"""Tests for ``repro.tune``: scoring contracts, the tuner, journaling.

``CostModel.estimate`` is one fast-fidelity run, so its contract is
equality with ``engine.run(spec, fidelity="fast")`` on cycles and total
energy (hence rank correlation 1.0 on both — the analytic walk it
replaced ranked energy *backwards*, Spearman -0.6, by omitting leakage),
monotonicity in the shard knob, and the load-aware-placement win on a
contended chip.  The tuner's contract: measure every candidate, beat
both built-in mappings at their default placements under every
objective, re-verify the winner at cycle fidelity, find the pinned
exhaustive-search winners, and never recompile a structure after round
one.

Full-grid searches go through the module-scoped ``tune_full`` fixture
(one journal per model, so every objective after the first replays the
fast measurements); tests that only need a journal or a report shape
pass a narrowed ``space`` to stay cheap.  ``tests/fixtures/tune_parent/``
holds a journal and a report written before the grid took dotted
configuration paths.
"""

from __future__ import annotations

import functools
import json
import shutil
from pathlib import Path

import pytest

from repro.config import ConfigError, scaled, small_chip, validate, with_param
from repro.engine import Engine, JobSpec
from repro.tune import Candidate, CostModel, TuneReport, Tuner
from repro.tune.search import DEFAULT_SPACE, MAPPINGS, _read_tune_journal

#: ``pimsim tune lenet5 --preset small --top-k 1 --output journal.jsonl
#: --report report.json``, as written when a candidate was four fields.
PARENT_FILES = Path(__file__).parent / "fixtures" / "tune_parent"


def _cand(mapping, rob_size, shards=1, placement="distance"):
    """A point of the default grid."""
    return Candidate(tuple(zip(DEFAULT_SPACE,
                               (mapping, rob_size, shards, placement))))


def _config(base, mapping, rob_size, shards=1, placement="distance"):
    """``base`` at a point of the default grid, built as the tuner does."""
    for path, value in _cand(mapping, rob_size, shards, placement).params:
        base = with_param(base, path, value)
    return base


def _space(**narrowed):
    """The default grid with some paths narrowed (leaf name -> values)."""
    return {path: narrowed.get(path.rpartition(".")[2], values)
            for path, values in DEFAULT_SPACE.items()}


# -- rank-correlation helper (average ranks for ties) -------------------------


def _ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) \
                and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def spearman(xs, ys):
    rx, ry = _ranks(list(xs)), _ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5


def test_spearman_helper():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


@pytest.fixture(scope="module")
def engine():
    with Engine(small_chip()) as eng:
        yield eng


@pytest.fixture(scope="module")
def tune_full(engine, tmp_path_factory):
    """``tune_full(model, objective)``: the default-grid small-chip
    search, cached; measurements are shared across objectives through a
    per-model journal."""
    journals = tmp_path_factory.mktemp("tune-journals")

    @functools.lru_cache(maxsize=None)
    def run(model, objective):
        tuner = Tuner(model, small_chip(), objective=objective, top_k=1,
                      engine=engine)
        return tuner.tune(journal=journals / f"{model}.jsonl", resume=True)

    return run


# -- scoring contracts --------------------------------------------------------


class TestCostModelRanking:
    @pytest.mark.parametrize("model,shard_options", [
        ("vgg8", (1,)),          # CNN: the shard knob is inert
        ("vit_tiny", (1, 4)),
        ("bert_tiny", (1, 4)),
    ])
    def test_rank_correlation_vs_measured(self, engine, model,
                                          shard_options):
        """An estimate IS the fast-tier measurement of the same
        (mapping, rob, shards) point — equal cycles and total energy, so
        both rank exactly like the simulator measures them."""
        base = small_chip()
        model_cost = CostModel()
        estimated, measured = [], []
        for mapping in MAPPINGS:
            for rob in (1, 8, 32):
                for shards in shard_options:
                    config = _config(base, mapping, rob, shards)
                    compiled, cfg = engine.compile_for(
                        JobSpec(model, config=config))
                    estimated.append(model_cost.estimate(compiled, cfg))
                    measured.append(engine.run(
                        JobSpec(model, config=config, fidelity="fast")))
        assert [e.cycles for e in estimated] \
            == [r.cycles for r in measured]
        assert [e.energy_pj for e in estimated] \
            == [r.total_energy_pj for r in measured]
        assert spearman([e.energy_pj for e in estimated],
                        [r.total_energy_pj for r in measured]) \
            == pytest.approx(1.0)

    def test_estimate_monotone_in_shards_vit(self, engine):
        """vit_tiny has enough shardable tiles that every extra shard
        strictly helps — the estimate must reflect that."""
        base = small_chip()
        cycles = []
        for shards in (1, 2, 4):
            compiled, cfg = engine.compile_for(JobSpec(
                "vit_tiny", config=_config(base, "performance_first", 8,
                                           shards)))
            cycles.append(CostModel().estimate(compiled, cfg).cycles)
        assert cycles[0] > cycles[1] > cycles[2]

    def test_estimate_monotone_in_shards_bert(self, engine):
        """bert_tiny's shard groups cap at its tile count, so estimates
        are non-increasing (shards 2 and 4 may coincide), never worse."""
        base = small_chip()
        cycles = []
        for shards in (1, 2, 4):
            compiled, cfg = engine.compile_for(JobSpec(
                "bert_tiny", config=_config(base, "performance_first", 8,
                                            shards)))
            cycles.append(CostModel().estimate(compiled, cfg).cycles)
        assert cycles[0] >= cycles[1] >= cycles[2]
        assert cycles[0] > cycles[2]

    def test_estimate_reports_per_core(self, engine):
        compiled, cfg = engine.compile_for(JobSpec(
            "vit_tiny", config=_config(small_chip(), "performance_first", 8)))
        est = CostModel().estimate(compiled, cfg)
        assert set(est.per_core_cycles) == set(compiled.program.programs)
        assert est.cycles == max(est.per_core_cycles.values())
        assert est.energy_pj > 0

    def test_objective_scalars(self, engine):
        compiled, cfg = engine.compile_for(JobSpec(
            "mlp", config=_config(small_chip(), "performance_first", 8)))
        est = CostModel().estimate(compiled, cfg)
        assert est.objective("latency") == float(est.cycles)
        assert est.objective("energy") == est.energy_pj
        assert est.objective("edp") == est.cycles * est.energy_pj
        with pytest.raises(ValueError, match="objective"):
            est.objective("throughput")


class TestLoadAwarePlacement:
    def test_beats_distance_on_contended_chip(self, engine):
        """On a 9-core chip every neighbour of the attention home core is
        hot with crossbar work; trading one hop for an idle core must be
        a measured win, not just a modelled one."""
        contended = validate(scaled(small_chip(), cores=9))
        cycles = {}
        for placement in ("distance", "load_aware"):
            config = _config(contended, "performance_first", 8, 4, placement)
            cycles[placement] = engine.run(JobSpec(
                "vit_tiny", config=config, fidelity="fast")).cycles
        assert cycles["load_aware"] < cycles["distance"]

    def test_distance_default_matches_explicit(self, engine):
        base = small_chip()
        compiled_explicit, _ = engine.compile_for(JobSpec(
            "vit_tiny",
            config=_config(base, "performance_first", 8, 4, "distance")))
        compiled_default, _ = engine.compile_for(
            JobSpec("vit_tiny", config=base, mapping="performance_first",
                    rob_size=8, attention_shards=4))
        assert (compiled_explicit.placement.shard_groups
                == compiled_default.placement.shard_groups)

    def test_invalid_placement_rejected(self):
        with pytest.raises(ConfigError, match="shard_placement"):
            validate(small_chip().with_shard_placement("random"))


# -- candidate generation -----------------------------------------------------


class TestCandidates:
    def test_key_and_round_trip(self):
        cand = _cand("performance_first", 16, 4, "load_aware")
        assert cand.key() == "performance_first/rob16/shards4/load_aware"
        assert Candidate.from_dict(cand.to_dict()) == cand
        # the four-field dict of files written before paths: same point
        assert Candidate.from_dict({
            "mapping": "performance_first", "rob_size": 16,
            "attention_shards": 4, "shard_placement": "load_aware",
        }) == cand
        # any other path renders as leaf=value, in grid order
        assert Candidate((("chip.cores", 16), ("core.rob_size", 8),
                          ("noc.hop_cycles", 2))).key() \
            == "cores=16/rob8/hop_cycles=2"

    def test_shards_capped_at_core_count(self):
        tuner = Tuner("vit_tiny", space=_space(attention_shards=(1, 8, 64)))
        cands = tuner.candidates(validate(scaled(small_chip(), cores=4)),
                                 shardable=True)
        assert max(dict(c.params)["compiler.attention_shards"]
                   for c in cands) == 4
        # the cap is the point's own core count
        tuner = Tuner("vit_tiny", space={"chip.cores": (4, 16),
                                         "compiler.attention_shards": (8,)})
        points = tuner.candidates(small_chip(), shardable=True)
        assert [c.key() for c in points] == ["cores=4/shards4",
                                             "cores=16/shards8"]
        assert [cfg.compiler.attention_shards for cfg in points.values()] \
            == [4, 8]

    def test_non_shardable_network_collapses_shard_knobs(self):
        tuner = Tuner("vgg8")
        cands = tuner.candidates(small_chip(), shardable=False)
        assert {dict(c.params)["compiler.attention_shards"]
                for c in cands} == {1}
        assert {dict(c.params)["compiler.shard_placement"]
                for c in cands} == {"distance"}
        # 2 mappings x 5 ROB sizes, nothing else
        assert len(cands) == 10

    def test_placements_collapse_at_one_shard(self):
        tuner = Tuner("vit_tiny", space=_space(attention_shards=(1, 4)))
        cands = [dict(c.params)
                 for c in tuner.candidates(small_chip(), shardable=True)]
        singles = [c for c in cands if c["compiler.attention_shards"] == 1]
        assert all(c["compiler.shard_placement"] == "distance"
                   for c in singles)
        sharded = [c for c in cands if c["compiler.attention_shards"] == 4]
        assert {c["compiler.shard_placement"] for c in sharded} \
            == {"distance", "load_aware"}

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            Tuner("mlp", objective="goodness")
        with pytest.raises(ValueError, match="top_k"):
            Tuner("mlp", top_k=0)
        # checked even where the placement would collapse away
        tuner = Tuner("mlp", space=_space(shard_placement=("random",)))
        with pytest.raises(ConfigError, match="shard_placement"):
            tuner.candidates(small_chip(), shardable=False)


# -- the tuner ----------------------------------------------------------------


#: (model, winner key, cycle-verified cycles) of the exhaustive
#: small-chip search — identical under "latency" and "edp".
WINNERS = [
    ("vgg8", "performance_first/rob32/shards1/distance", 560_646),
    ("vit_tiny", "performance_first/rob32/shards4/load_aware", 41_943),
    ("bert_tiny", "performance_first/rob32/shards2/distance", 17_503),
]


class TestTuner:
    @pytest.mark.parametrize("model", ["vgg8", "vit_tiny"])
    def test_beats_both_builtin_mappings(self, tune_full, model):
        """Acceptance: the tuned point beats BOTH built-in mappings at
        the base configuration's defaults, on cycle-verified cycles —
        for a CNN and for an attention model."""
        report = tune_full(model, "latency")
        assert report.winner is not None
        assert report.winner_measured["fidelity"] == "cycle"
        for mapping in MAPPINGS:
            assert mapping in report.baselines
            assert report.baselines[mapping]["fidelity"] == "cycle"
            assert (report.winner_measured["cycles"]
                    < report.baselines[mapping]["cycles"])
            assert report.speedups[mapping] > 1.0

    @pytest.mark.parametrize("objective", ["latency", "edp"])
    @pytest.mark.parametrize("model,key,cycles", WINNERS,
                             ids=[w[0] for w in WINNERS])
    def test_finds_pinned_winner(self, tune_full, model, key, cycles,
                                 objective):
        report = tune_full(model, objective)
        assert report.winner.key() == key
        assert report.winner_measured["cycles"] == cycles

    @pytest.mark.parametrize("model", ["vit_tiny", "bert_tiny"])
    def test_energy_objective_beats_both_builtin_mappings(self, tune_full,
                                                          model):
        """Regression: ranking energy by a leakage-free estimate picked
        utilization_first points that lose to the performance_first
        baseline (0.88x / 0.75x); a measured ranking cannot."""
        report = tune_full(model, "energy")
        assert set(report.speedups) == set(MAPPINGS)
        assert all(s >= 1.0 for s in report.speedups.values())

    def test_every_candidate_measured(self, tune_full):
        report = tune_full("vit_tiny", "latency")
        assert report.considered == 70
        assert report.evaluated == report.considered
        assert all(e.fast is not None and e.fast["fidelity"] == "fast"
                   for e in report.entries)
        assert sum(1 for e in report.entries if e.cycle is not None) == 1

    def test_config_delta_names_changed_knobs(self, tune_full):
        report = tune_full("vit_tiny", "latency")
        base = small_chip()
        for path, delta in report.config_delta.items():
            section, _, leaf = path.partition(".")
            assert delta["base"] == getattr(
                getattr(base, section), leaf)
        rob_size = dict(report.winner.params)["core.rob_size"]
        if rob_size != base.core.rob_size:
            assert report.config_delta["core.rob_size"]["tuned"] == rob_size

    def test_zero_recompile_after_round_one(self):
        """Pinned: compile misses == unique program structures (mapping x
        effective shard knobs); every measurement — fast, cycle re-verify,
        baselines — reuses round one's artifacts, and a second tune run
        compiles nothing at all."""
        with Engine(small_chip()) as eng:
            tuner = Tuner("vit_tiny", small_chip(), top_k=1,
                          space=_space(rob_size=(8, 16),
                                       attention_shards=(1, 4)),
                          engine=eng, workers=1)
            tuner.tune()
            stats = eng.compile_stats()
            # structures: 2 mappings x (shards1 + shards4 x 2 placements);
            # ROB size and fidelity share one compile entry per structure.
            assert stats["misses"] == 6
            tuner.tune()
            after = eng.compile_stats()
            assert after["misses"] == 6
            assert after["hits"] > stats["hits"]

    def test_objective_edp_picks_a_winner(self, engine):
        tuner = Tuner("mlp", small_chip(), objective="edp", top_k=1,
                      space=_space(rob_size=(8, 16)), engine=engine)
        report = tuner.tune()
        assert report.objective == "edp"
        assert report.winner is not None
        assert report.winner_measured["energy_pj"] > 0


class TestJournal:
    def test_streams_and_resumes(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        with Engine(small_chip()) as eng:
            tuner = Tuner("vit_tiny", small_chip(), top_k=1,
                          space=_space(rob_size=(8,),
                                       attention_shards=(1, 4)),
                          engine=eng)
            first = tuner.tune(journal=journal)
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()]
        # 2 mappings x (shards1 + shards4 x 2 placements) = 6 fast,
        # + 1 cycle + 2 baselines + summary
        assert sum(1 for r in lines if "key" in r) == 7
        assert sum(1 for r in lines if "baseline" in r) == 2
        assert lines[-1]["summary"]["winner"] == first.winner.key()

        with Engine(small_chip()) as eng:
            tuner = Tuner("vit_tiny", small_chip(), top_k=1,
                          space=_space(rob_size=(8,),
                                       attention_shards=(1, 4)),
                          engine=eng)
            second = tuner.tune(journal=journal, resume=True)
        assert second.resumed == 9  # every measurement replayed
        assert second.winner == first.winner
        assert second.winner_measured == first.winner_measured
        assert second.baselines == first.baselines

    def test_torn_tail_terminated_not_concatenated(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        journal.write_text('{"key": "torn-and-unfinish')  # no newline
        with Engine(small_chip()) as eng:
            tuner = Tuner("mlp", small_chip(), top_k=1,
                          space=_space(rob_size=(8,)), engine=eng)
            tuner.tune(journal=journal, resume=True)
        lines = journal.read_text().splitlines()
        assert lines[0] == '{"key": "torn-and-unfinish'
        for line in lines[1:]:
            json.loads(line)  # every appended record parses

    def test_reader_skips_foreign_and_torn_lines(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        journal.write_text("\n".join([
            json.dumps({"key": "a/rob1/shards1/distance",
                        "fidelity": "fast", "report": {"cycles": 1}}),
            "not json at all",
            json.dumps({"unrelated": True}),
            json.dumps({"baseline": "performance_first",
                        "report": {"cycles": 2}}),
            '{"key": "torn',
        ]))
        done = _read_tune_journal(journal)
        assert ("a/rob1/shards1/distance", "fast") in done
        assert ("baseline", "performance_first") in done
        assert len(done) == 2

    def test_missing_journal_reads_empty(self, tmp_path):
        assert _read_tune_journal(tmp_path / "absent.jsonl") == {}

    def test_resumes_a_journal_written_before_exhaustive_search(
            self, engine, tmp_path):
        """Lines copied from a budgeted (cost-model era) run — every
        record kind the journal grammar has: measurement and baseline
        records are unchanged, the summary's ``pruned`` count is noise."""
        key = "performance_first/rob32/shards4/load_aware"
        old = {"cycles": 42296, "energy_pj": 7428631.740800008,
               "fidelity": "fast"}
        baseline = {"cycles": 98765, "energy_pj": 1.5, "fidelity": "cycle"}
        journal = tmp_path / "old.jsonl"
        journal.write_text("\n".join(json.dumps(r) for r in [
            {"key": key, "fidelity": "fast", "report": old,
             "candidate": {"mapping": "performance_first", "rob_size": 32,
                           "attention_shards": 4,
                           "shard_placement": "load_aware"}},
            {"baseline": "utilization_first", "report": baseline},
            {"summary": {"network": "vit_tiny", "objective": "latency",
                         "considered": 70, "pruned": 66, "evaluated": 4,
                         "resumed": 0, "winner": key}},
        ]) + "\n")
        report = Tuner("vit_tiny", small_chip(), top_k=1,
                       space=_space(rob_size=(32,), attention_shards=(4,),
                                    shard_placement=("load_aware",)),
                       engine=engine).tune(journal=journal, resume=True)
        assert report.resumed == 2
        replayed = next(e for e in report.entries
                        if e.candidate.key() == key)
        assert replayed.fast == old
        assert report.baselines["utilization_first"] == baseline


class TestTuneReport:
    def test_json_round_trip(self, engine):
        tuner = Tuner("vit_tiny", small_chip(), top_k=1,
                      space=_space(rob_size=(8,), attention_shards=(1, 4)),
                      engine=engine)
        report = tuner.tune()
        restored = TuneReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.winner == report.winner
        assert restored.considered == report.considered
        assert restored.evaluated == report.evaluated

    def test_loads_a_report_written_before_exhaustive_search(self):
        """``budget`` and the per-entry estimate / estimated_objective /
        pruned keys of cost-model era files are ignored."""
        legacy = {"mapping": "performance_first", "rob_size": 32,
                  "attention_shards": 4, "shard_placement": "load_aware"}
        fast = {"cycles": 42296, "energy_pj": 7428631.7, "fidelity": "fast"}
        old = {
            "network": "vit_tiny", "objective": "latency", "budget": 4,
            "entries": [
                {"candidate": legacy, "fast": fast,
                 "estimate": {"cycles": 11344, "energy_pj": 2303105.9,
                              "flow_cycles": 8216},
                 "estimated_objective": 11344.0},
                {"candidate": {"mapping": "utilization_first",
                               "rob_size": 1, "attention_shards": 1,
                               "shard_placement": "distance"},
                 "estimate": {"cycles": 99999, "energy_pj": 1.0,
                              "flow_cycles": 1},
                 "estimated_objective": 99999.0, "pruned": True},
            ],
            "baselines": {}, "winner": legacy,
            "winner_measured": {**fast, "fidelity": "cycle"},
            "speedups": {}, "config_delta": {}, "resumed": 0,
        }
        report = TuneReport.from_dict(old)
        assert report.winner == _cand("performance_first", 32, 4,
                                      "load_aware")
        assert (report.considered, report.evaluated) == (2, 1)
        assert report.entries[0].fast == fast
        assert "not measured" in report.summary()
        assert "budget" not in report.to_dict()

    def test_save_load(self, engine, tmp_path):
        tuner = Tuner("mlp", small_chip(), top_k=1,
                      space=_space(rob_size=(8,)), engine=engine)
        report = tuner.tune()
        path = tmp_path / "report.json"
        report.save(path)
        assert TuneReport.load(path).to_dict() == report.to_dict()

    def test_summary_readable(self, engine):
        tuner = Tuner("mlp", small_chip(), top_k=1,
                      space=_space(rob_size=(1, 8)), engine=engine)
        report = tuner.tune()
        text = report.summary()
        assert "4 candidates, 4 measured" in text
        assert "winner:" in text
        assert report.winner.key() in text
        assert "baseline performance_first" in text


class TestTuneCLI:
    def test_smoke_writes_report_and_journal(self, tmp_path, capsys):
        from repro.runner.cli import main
        report_path = tmp_path / "report.json"
        journal_path = tmp_path / "journal.jsonl"
        code = main(["tune", "mlp", "--preset", "tiny",
                     "--top-k", "1", "--report", str(report_path),
                     "--output", str(journal_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        report = TuneReport.load(report_path)
        assert report.winner is not None
        records = [json.loads(line)
                   for line in journal_path.read_text().splitlines()]
        assert "summary" in records[-1]

    def test_resume_requires_output(self, capsys):
        from repro.runner.cli import main
        assert main(["tune", "mlp", "--preset", "tiny", "--resume"]) == 2
        assert "--resume requires --output" in capsys.readouterr().err

    def test_fidelity_flags_on_mappings_and_rob(self, capsys):
        from repro.runner.cli import main
        assert main(["mappings", "--model", "mlp", "--preset", "tiny",
                     "--fidelity", "fast"]) == 0
        assert main(["rob", "--model", "mlp", "--preset", "tiny",
                     "--sizes", "1,8", "--fidelity", "fast"]) == 0
        out = capsys.readouterr().out
        assert "normalized" in out


class TestParentFiles:
    """Files written before the grid took configuration paths."""

    def test_resume_runs_no_measurement(self, engine, tmp_path):
        journal = tmp_path / "journal.jsonl"
        shutil.copy(PARENT_FILES / "journal.jsonl", journal)
        before = journal.read_text().splitlines()
        report = Tuner("lenet5", small_chip(), top_k=1,
                       engine=engine).tune(journal=journal, resume=True)
        # 10 fast + 1 cycle + 2 baselines, all replayed
        assert report.resumed == 13
        after = journal.read_text().splitlines()
        assert after[:-1] == before
        assert json.loads(after[-1])["summary"]["resumed"] == 13

    def test_report_loads(self):
        report = TuneReport.load(PARENT_FILES / "report.json")
        assert (report.considered, report.evaluated) == (10, 10)
        assert report.winner == _cand("performance_first", 32)
        assert report.winner.key() \
            == "performance_first/rob32/shards1/distance"
        assert {e.candidate.key() for e in report.entries} \
            == {_cand(m, r).key() for m in MAPPINGS
                for r in DEFAULT_SPACE["core.rob_size"]}

    def test_loaded_winner_equals_a_fresh_run(self, engine):
        parent = TuneReport.load(PARENT_FILES / "report.json")
        fresh = Tuner("lenet5", small_chip(), top_k=1, engine=engine).tune()
        assert fresh.winner == parent.winner
        assert fresh.winner_measured == parent.winner_measured
        assert fresh.baselines == parent.baselines
        assert [e.to_dict() for e in fresh.entries] \
            == [e.to_dict() for e in parent.entries]
