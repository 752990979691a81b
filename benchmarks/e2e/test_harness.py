"""Tier-1 tests of the e2e benchmark's harness (no simulation, < 2 s):
statistics, the bound comparison, workload generation, and the
``BENCHMARK.json`` <-> tables agreement."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # `e2ebench` lives beside this file
    sys.path.insert(0, str(HERE))

from e2ebench import stats, tables, workloads  # noqa: E402
from e2ebench.tracing import Tracer, self_times  # noqa: E402

ROOT = HERE.parents[1]


# -- percentiles and throughput ---------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 95) == 95.0
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([7.0], 95) == 7.0  # always a sample that occurred


def test_p95_needs_200_samples_for_ten_beyond():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9
    assert stats.samples_beyond(tables.P95_MIN_SAMPLES, 95) >= 10
    assert stats.samples_beyond(0, 95) == 0


def test_throughput_uses_the_median_pass():
    # one noisy pass (9 s) must not move the figure
    assert stats.pass_throughput(17, [2.0, 2.0, 9.0]) == pytest.approx(8.5)
    assert stats.pass_throughput(17, [1.0, 2.0, 3.0, 4.0]) == \
        pytest.approx(17 / 2.5)
    assert stats.pass_throughput(17, []) == 0.0


def test_spread_is_iqr_from_four_runs_range_below():
    assert stats.spread([5.0]) == 0.0
    assert stats.spread([1.0, 4.0, 2.0]) == 3.0
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)


# -- bound comparison ----------------------------------------------------------------


def _verdict(name, base, new):
    return stats.compare_metric(tables.e2e_metric(name), "w", base,
                                new).verdict


def test_bound_verdicts_lower_is_better():
    base = [100.0, 101.0, 99.0]
    assert _verdict("job_wall_p50_ms", base, [108.0, 109.0, 107.0]) \
        == "unchanged"                      # +8% within the 20% bound
    assert _verdict("job_wall_p50_ms", base, [125.0, 126.0, 124.0]) \
        == "regressed"
    assert _verdict("job_wall_p50_ms", base, [70.0, 71.0, 69.0]) \
        == "improved"


def test_bound_verdicts_higher_is_better():
    base = [10.0, 10.1, 9.9]
    assert _verdict("jobs_per_s", base, [7.0, 7.1, 6.9]) == "regressed"
    assert _verdict("jobs_per_s", base, [13.0, 13.1, 12.9]) == "improved"
    assert _verdict("jobs_per_s", base, [9.2, 9.3, 9.1]) == "unchanged"


def test_unresolved_when_spread_exceeds_bound_and_runs_overlap():
    base = [100.0, 130.0, 90.0]             # spread 40 > allowed 20
    assert _verdict("job_wall_p50_ms", base, [120.0, 95.0, 135.0]) \
        == "unresolved"
    # wide spread, but every new run beats every base run: resolved
    assert _verdict("job_wall_p50_ms", base, [40.0, 80.0, 50.0]) \
        == "improved"
    assert _verdict("job_wall_p50_ms", base, [150.0, 190.0, 170.0]) \
        == "regressed"


def test_setup_has_an_absolute_floor():
    # +0.12 s on a 0.4 s set-up is +30% (> 25%) but under the 0.15 s floor
    assert _verdict("setup_s", [0.40, 0.41, 0.39], [0.52, 0.53, 0.51]) \
        == "unchanged"
    assert _verdict("setup_s", [0.40, 0.41, 0.39], [0.60, 0.61, 0.59]) \
        == "regressed"
    # a 4 s set-up is governed by the relative bound (1 s), not the floor
    assert _verdict("setup_s", [4.0, 4.0, 4.0], [4.8, 4.8, 4.8]) \
        == "unchanged"


def test_exact_metrics_and_the_fidelity_cap():
    assert _verdict("sim_cycles", [4387109.0] * 3, [4387109.0] * 3) \
        == "unchanged"
    assert _verdict("sim_cycles", [4387109.0] * 3, [4387110.0] * 3) \
        == "regressed"
    assert _verdict("failed_share", [0.0] * 3, [0.01] * 3) == "regressed"
    assert _verdict("fast_vs_cycle_err_pct", [0.0] * 3, [0.05] * 3) \
        == "unchanged"                      # within 0.1 absolute
    assert _verdict("fast_vs_cycle_err_pct", [1.95] * 3, [2.04] * 3) \
        == "regressed"                      # over the 2.0 hard cap


def test_compare_records_rows_and_ratio_base():
    def record(p50):
        return {"runs": [
            {"workload": "dse_cold_fast", "traced": False, "metrics": {
                "job_wall_p50_ms": {"value": v, "unit": "ms"}}}
            for v in p50] + [
            {"workload": "dse_cold_fast", "traced": True, "metrics": {
                "job_wall_p50_ms": {"value": 1e9, "unit": "ms"}}}]}
    rows = stats.compare_records(record([30.0, 31.0, 29.0]),
                                 record([60.0, 61.0, 59.0]))
    assert [(r.workload, r.metric, r.verdict) for r in rows] == \
        [("dse_cold_fast", "job_wall_p50_ms", "regressed")]
    assert rows[0].ratio == pytest.approx(2.0) and rows[0].base == 30.0
    assert "2.0000" in stats.format_comparison(rows)


# -- workload generation ----------------------------------------------------------------


def _ids(lanes):
    return [job.spec.job_id() for lane in lanes for job in lane]


@pytest.mark.parametrize("decl", tables.WORKLOADS, ids=lambda d: d.name)
def test_same_seed_same_jobs_other_seed_other_order(decl):
    workload = workloads.make_workload(decl.name)
    first = _ids(workload.jobs(11, 0))
    assert first == _ids(workload.jobs(11, 0))
    assert len(first) == decl.jobs_per_pass
    other = _ids(workload.jobs(12, 0))
    assert other != first
    if decl.name != "serve_small_http":  # (its tags carry the seed)
        assert sorted(other) == sorted(first)


def test_served_pass_has_exactly_the_declared_repeat_share():
    for seed in (11, 12, 13):
        for pass_index in (0, 1):
            lanes = workloads.serve_jobs(seed, pass_index)
            assert len(lanes) == workloads.SERVE_CLIENTS
            jobs = [job for lane in lanes for job in lane]
            repeats = [job for job in jobs if job.repeat_of is not None]
            assert len(jobs) == 60 and len(repeats) == 12   # 20%
            assert len({job.key for job in jobs}) == 48
            for lane in lanes:
                for at, job in enumerate(lane):
                    if job.repeat_of is not None:
                        original = lane[job.repeat_of]
                        assert job.repeat_of < at
                        assert original.repeat_of is None
                        assert original.spec.job_id() == job.spec.job_id()
    # a new pass submits new job ids
    assert not set(_ids(workloads.serve_jobs(11, 0))) \
        & set(_ids(workloads.serve_jobs(11, 1)))


def test_job_sets_match_the_declarations():
    assert len({j.key for j in workloads.dse_jobs(11)}) == 17
    assert all(j.spec.fidelity == "fast" for j in workloads.dse_jobs(11))
    assert all(j.spec.fidelity == "cycle" for j in workloads.rob_jobs(11))
    decode = workloads.decode_jobs(11)
    assert sorted(j.spec.fidelity for j in decode) == \
        ["cycle"] * 8 + ["fast"] * 4
    assert all(1 <= j.spec.kv_tokens <= 16
               and j.spec.kv_tokens + j.spec.decode_steps <= 64
               for j in decode)


# -- tracing ---------------------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    root = tracer.add("job", "engine", 0.0, 10.0, job="j1")
    child = tracer.add("compile", "compiler", 1.0, 7.0, parent=root)
    tracer.add("generate_code", "compiler", 2.0, 6.0, parent=child)
    assert self_times(tracer.spans) == [4.0, 2.0, 4.0]
    with tracer.span("outer", "engine", job="j2"):
        with tracer.span("inner", "arch") as inner:
            pass
    assert inner["parent"] == 3 and inner["job"] == "j2"


# -- declarations ------------------------------------------------------------------------------


def test_benchmark_json_mirrors_the_tables():
    declared = tables.benchmark_json()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == declared
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in [m["name"] for m in declared["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert len(tables.E2E_METRICS) == 9 and len(tables.WORKLOADS) == 4
    for metric in tables.LAYER_METRICS:
        assert metric.layer and metric.moves, metric.name
        assert set(metric.probe_on) <= {w.name for w in tables.WORKLOADS}
