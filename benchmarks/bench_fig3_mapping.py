"""Fig. 3 — comparison of mapping algorithms.

Paper setup: 64 cores x 512 crossbars (128x128), ROB size 1; the four
networks alexnet / googlenet / resnet18 / squeezenet under the
utilization-first and performance-first mapping policies.  Reported:
latency and energy normalized to utilization-first (per network).

Paper result: performance-first is better on both axes, ~2x on average.
"""

import pytest

from repro import paper_chip
from repro.models import FIG3_MODELS
from repro.runner import compare_mappings

from .conftest import record

_CAPTION = ("mapping-policy comparison, normalized to utilization-first "
            "(paper: performance-first ~0.5 on both axes)")

#: one ``compare_mappings`` (the ``pimsim mappings`` sweep) per network.
_comparisons: dict = {}


def _comparison(network: str):
    if network not in _comparisons:
        _comparisons[network] = compare_mappings(network, paper_chip(),
                                                 rob_size=1)
    return _comparisons[network]


@pytest.mark.parametrize("network", FIG3_MODELS)
@pytest.mark.parametrize("mapping", ["utilization_first",
                                     "performance_first"])
def test_fig3_mapping(benchmark, network, mapping):
    cmp = benchmark.pedantic(
        lambda: _comparison(network), rounds=1, iterations=1)
    report = {"utilization_first": cmp.utilization,
              "performance_first": cmp.performance}[mapping]
    base = cmp.utilization
    record("Fig. 3a", _CAPTION, network,
           {"utilization_first": "util latency",
            "performance_first": "perf latency"}[mapping],
           report.cycles / base.cycles)
    record("Fig. 3b", _CAPTION, network,
           {"utilization_first": "util energy",
            "performance_first": "perf energy"}[mapping],
           report.total_energy_pj / base.total_energy_pj)
    assert report.cycles > 0


def test_fig3_shape_holds():
    """Regression guard: performance-first wins latency AND energy on
    every Fig. 3 network."""
    for network in FIG3_MODELS:
        cmp = _comparison(network)
        assert cmp.latency_ratio < 1, network
        assert cmp.energy_ratio < 1, network
