"""Tests for design-space exploration: ``with_param``, the Pareto front
and :meth:`Tuner.explore <repro.tune.Tuner.explore>`, the search's
measurement stage run on its own."""

import pytest

from repro.config import ConfigError, small_chip, with_param
from repro.engine import Engine
from repro.tune import Candidate, TuneEntry, TuneReport, Tuner


class TestWithParam:
    def test_nested_field(self):
        cfg = with_param(small_chip(), "core.rob_size", 13)
        assert cfg.core.rob_size == 13

    def test_special_cores_path(self):
        cfg = with_param(small_chip(), "chip.cores", 4)
        assert cfg.chip.n_cores == 4

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="core.flux"):
            with_param(small_chip(), "core.flux", 1)

    def test_unknown_field_error_names_path_and_valid_keys(self):
        with pytest.raises(ValueError) as excinfo:
            with_param(small_chip(), "core.flux", 1)
        message = str(excinfo.value)
        assert "'core.flux'" in message          # the full dotted path
        assert "'flux'" in message               # the failing segment
        assert "rob_size" in message             # valid keys at that level
        assert "vector_lanes" in message

    def test_unknown_section_error_names_sections(self):
        with pytest.raises(ValueError) as excinfo:
            with_param(small_chip(), "cor.rob_size", 1)
        message = str(excinfo.value)
        assert "'cor.rob_size'" in message
        assert "compiler" in message and "crossbar" in message

    def test_path_through_leaf_rejected(self):
        with pytest.raises(ValueError, match="leaf"):
            with_param(small_chip(), "core.rob_size.bits", 1)

    def test_invalid_value_rejected_by_validation(self):
        with pytest.raises(ConfigError):
            with_param(small_chip(), "core.rob_size", 0)

    def test_original_config_untouched(self):
        base = small_chip()
        with_param(base, "core.rob_size", 2)
        assert base == small_chip()


def _fake_point(latency, energy, **params):
    return TuneEntry(candidate=Candidate(tuple(params.items())),
                     fast={"cycles": latency, "energy_pj": energy,
                           "fidelity": "fast"})


def pareto_front(points):
    return TuneReport("net", "latency", entries=list(points)).pareto()


class TestParetoFront:
    def test_single_point_is_front(self):
        p = _fake_point(10, 10.0)
        assert pareto_front([p]) == [p]

    def test_dominated_point_excluded(self):
        good = _fake_point(10, 10.0)
        bad = _fake_point(20, 20.0)
        assert pareto_front([good, bad]) == [good]

    def test_tradeoff_points_both_kept(self):
        fast = _fake_point(10, 100.0)
        frugal = _fake_point(100, 10.0)
        front = pareto_front([fast, frugal])
        assert set(map(id, front)) == {id(fast), id(frugal)}

    def test_duplicate_points_one_representative(self):
        a = _fake_point(10, 10.0)
        b = _fake_point(10, 10.0)
        front = pareto_front([a, b])
        assert len(front) == 1
        assert front[0] is a  # first in input order wins, deterministically

    def test_empty_input_empty_front(self):
        assert pareto_front([]) == []

    def test_all_dominated_single_survivor(self):
        best = _fake_point(1, 1.0)
        pts = [_fake_point(10, 10.0), best, _fake_point(5, 5.0),
               _fake_point(2, 2.0)]
        assert pareto_front(pts) == [best]

    def test_all_ties_single_representative(self):
        pts = [_fake_point(7, 3.0) for _ in range(5)]
        front = pareto_front(pts)
        assert len(front) == 1
        assert front[0] is pts[0]

    def test_deterministic_across_orders(self):
        a, b, c = (_fake_point(10, 100.0), _fake_point(100, 10.0),
                   _fake_point(10, 100.0))
        first = [(p.fast["cycles"], p.fast["energy_pj"])
                 for p in pareto_front([a, b, c])]
        second = [(p.fast["cycles"], p.fast["energy_pj"])
                  for p in pareto_front([c, b, a])]
        assert first == second == [(10, 100.0), (100, 10.0)]

    def test_front_sorted_by_latency(self):
        pts = [_fake_point(100, 10.0), _fake_point(10, 100.0),
               _fake_point(50, 50.0)]
        front = pareto_front(pts)
        latencies = [p.fast["cycles"] for p in front]
        assert latencies == sorted(latencies)
        # errored and unmeasured entries never reach the front
        failed = TuneEntry(candidate=Candidate(()), error="CompileError: x")
        assert pareto_front([failed, TuneEntry(Candidate(()))]) == []


class TestExplore:
    @pytest.fixture(scope="class")
    def exploration(self):
        return Tuner("mlp", small_chip(), space={
            "core.rob_size": [1, 8],
            "noc.hop_cycles": [2, 8],
        }).explore()

    def test_full_grid_evaluated(self, exploration):
        assert len(exploration.entries) == 4
        assert all(e.error is None for e in exploration.entries)
        # no re-verification and no baselines: one measurement per point
        assert all((e.fast is None) != (e.cycle is None)
                   for e in exploration.entries)
        assert exploration.baselines == {} and exploration.winner is None

    def test_params_recorded(self, exploration):
        combos = {e.candidate.params for e in exploration.entries}
        assert (("core.rob_size", 1), ("noc.hop_cycles", 2)) in combos
        assert exploration.entries[0].candidate.key() == "rob1/hop_cycles=2"

    def test_best_latency_is_minimum(self, exploration):
        best = exploration.pareto()[0]
        assert best.measured["cycles"] == min(
            e.measured["cycles"] for e in exploration.entries)

    def test_pareto_subset_of_points(self, exploration):
        front = exploration.pareto()
        assert front
        ids = {id(e) for e in exploration.entries}
        assert all(id(e) in ids for e in front)

    def test_table_lists_all_points(self, exploration):
        text = exploration.summary()
        assert text.count("hop_cycles=") == 4
        assert "4 candidates, 4 measured" in text

    def test_infeasible_points_recorded_as_failures(self):
        ex = Tuner("vgg16", small_chip(), space={
            "core.crossbars_per_core": [2, 128],
        }).explore()
        failed, measured = ex.entries
        assert failed.error.startswith("CompileError: ")  # 2 cannot host
        assert measured.error is None and measured.measured  # 128 can
        assert "FAILED" in ex.summary()

    def test_unknown_path_raises_before_anything_runs(self):
        with Engine(small_chip()) as eng:
            tuner = Tuner("mlp", space={"core.rob_size": [1],
                                        "core.flux": [1]}, engine=eng)
            with pytest.raises(ValueError, match="core.flux"):
                tuner.explore()
            assert eng.compile_stats()["misses"] == 0


def test_explore_records_empty_exception_messages():
    """A failing design point is recorded through the engine's failure
    record: the message's first line, or the exception type when the
    message is empty."""
    from repro.engine.pool import job_failure

    assert job_failure(ValueError("boom")).message == "boom"
    assert job_failure(ValueError()).message == "ValueError"
    assert job_failure(ValueError("a\nb")).message == "a"
