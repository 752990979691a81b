"""Fig. 4 — latency with different ROB sizes.

Paper setup: the Fig. 3 chip, performance-first mapping, ROB size swept
over {1, 4, 8, 12, 16}; latency normalized to ROB=1 per network.

Paper result: latency drops as the ROB grows, but the 12 -> 16 step gains
little — consecutive instructions start hitting the same crossbar group
(structure hazard).
"""

import pytest

from repro import paper_chip
from repro.models import FIG3_MODELS
from repro.runner import sweep_rob

from .conftest import record

ROB_SIZES = (1, 4, 8, 12, 16)
_CAPTION = ("latency vs ROB size, normalized to ROB=1 "
            "(paper: monotone drop, small 12->16 gain)")

#: one ``sweep_rob`` (the ``pimsim rob`` sweep) per network.
_sweeps: dict = {}


def _sweep(network: str):
    if network not in _sweeps:
        _sweeps[network] = sweep_rob(network, paper_chip(), sizes=ROB_SIZES)
    return _sweeps[network]


@pytest.mark.parametrize("network", FIG3_MODELS)
@pytest.mark.parametrize("rob", ROB_SIZES)
def test_fig4_rob(benchmark, network, rob):
    sweep = benchmark.pedantic(
        lambda: _sweep(network), rounds=1, iterations=1)
    record("Fig. 4", _CAPTION, network, f"ROB {rob}",
           sweep.normalized_latency()[rob])
    assert sweep.reports[rob].cycles > 0


def test_fig4_shape_holds():
    """Monotone non-increasing latency; the 12->16 step gains less than
    the 1->4 step (diminishing returns / structure-hazard plateau)."""
    for network in FIG3_MODELS:
        reports = _sweep(network).reports
        cycles = [reports[rob].cycles for rob in ROB_SIZES]
        for earlier, later in zip(cycles, cycles[1:]):
            assert later <= earlier * 1.01, network
        early_gain = cycles[0] - cycles[1]          # 1 -> 4
        late_gain = cycles[-2] - cycles[-1]         # 12 -> 16
        assert late_gain < early_gain, network
