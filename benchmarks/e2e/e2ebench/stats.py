"""Statistics of one run, and the bound comparison behind ``--compare``."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.runner.results import nearest_rank as percentile

from .tables import E2E_METRICS, Metric

__all__ = ["samples_beyond", "percentile", "pass_throughput", "spread",
           "Verdict", "compare_metric", "compare_records",
           "format_comparison"]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    if n <= 0:
        return 0
    rank = max(1, -(-n * q // 100))
    return int(n - rank)


def pass_throughput(jobs_per_pass: int, pass_walls: list[float]) -> float:
    """Jobs per second from the *median* pass wall time.

    The median is robust to one noisy pass on a shared VM, and because a
    pass is a fixed job list both sides of an A/B time identical work
    however many passes fit the budget.
    """
    if not pass_walls:
        return 0.0
    return jobs_per_pass / statistics.median(pass_walls)


def spread(values: list[float]) -> float:
    """Run-to-run spread: interquartile distance from 4 runs up, the
    range below that, 0 for a single run."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return max(values) - min(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


@dataclass(frozen=True)
class Verdict:
    workload: str
    metric: str
    unit: str
    verdict: str          # improved / unchanged / regressed / unresolved
    base: float
    new: float
    allowed: float
    spread: float

    @property
    def ratio(self) -> float | None:
        return self.new / self.base if self.base else None


def compare_metric(metric: Metric, workload: str, base_runs: list[float],
                   new_runs: list[float]) -> Verdict:
    """Apply one metric's bound to two sets of runs of one workload.

    ``allowed`` is ``max(bound x |base median|, abs_floor)``.  A move
    beyond it is ``regressed``/``improved``; within it, ``unchanged``.
    Either reading is downgraded to ``unresolved`` when the run-to-run
    spread is wider than ``allowed`` and the two sets of runs overlap —
    the data cannot tell the sides apart at the bound's resolution.  A
    value above the metric's hard ``cap`` is ``regressed`` regardless.
    """
    base = statistics.median(base_runs)
    new = statistics.median(new_runs)
    allowed = max((metric.bound or 0.0) * abs(base), metric.abs_floor)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (new - base)
    wide = max(spread(base_runs), spread(new_runs)) > allowed
    new_all_better = all(sign * (n - b) < 0
                         for n in new_runs for b in base_runs)
    new_all_worse = all(sign * (n - b) > 0
                        for n in new_runs for b in base_runs)
    if metric.cap is not None and new > metric.cap:
        verdict = "regressed"
    elif worse_by > allowed:
        verdict = "regressed" if (new_all_worse or not wide) else "unresolved"
    elif -worse_by > allowed:
        verdict = "improved" if (new_all_better or not wide) else "unresolved"
    else:
        verdict = "unchanged" if (new_all_better or not wide) else "unresolved"
    return Verdict(workload, metric.name, metric.unit, verdict, base, new,
                   allowed, max(spread(base_runs), spread(new_runs)))


def _runs_by_workload(record: dict) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for run in record.get("runs", []):
        if run.get("traced"):
            continue  # end-to-end metrics never come from a traced run
        per = out.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            per.setdefault(name, []).append(entry["value"])
    return out


def compare_records(base: dict, new: dict) -> list[Verdict]:
    """One verdict per (workload, end-to-end metric) present on both sides."""
    base_runs, new_runs = _runs_by_workload(base), _runs_by_workload(new)
    verdicts = []
    for workload in base_runs:
        if workload not in new_runs:
            continue
        for metric in E2E_METRICS:
            a = base_runs[workload].get(metric.name)
            b = new_runs[workload].get(metric.name)
            if a and b:
                verdicts.append(compare_metric(metric, workload, a, b))
    return verdicts


def format_comparison(verdicts: list[Verdict]) -> str:
    lines = [f"{'workload':<18}{'metric':<24}{'verdict':<11}"
             f"{'base':>14}{'new':>14}  {'new/base':>9}  allowed"]
    for v in verdicts:
        ratio = f"{v.ratio:9.4f}" if v.ratio is not None else "      n/a"
        lines.append(f"{v.workload:<18}{v.metric:<24}{v.verdict:<11}"
                     f"{v.base:>14.6g}{v.new:>14.6g}  {ratio}  "
                     f"+-{v.allowed:.4g} {v.unit}")
    return "\n".join(lines)
