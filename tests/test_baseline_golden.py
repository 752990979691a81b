"""The MNSIM2.0-style baseline against a recorded golden.

``tests/golden/baseline_fig5.json`` (see ``_baseline_golden.py``) holds
``cycles``, ``layer_comm`` and ``layer_compute`` of the behaviour-level
baseline on the Fig. 5 networks (``mnsim`` preset) and on the residual
and branch test nets (``small`` preset).  The baseline shares the
compiler's placement, stage homes and emission order, so this pins those
too, as the baseline sees them.
"""

import json

from _baseline_golden import GOLDEN, results


def test_baseline_matches_the_recorded_golden():
    golden = json.loads(GOLDEN.read_text())
    got = results()
    assert sorted(got) == sorted(golden)
    for key, recorded in golden.items():
        assert got[key] == recorded, f"{key}: baseline numbers changed"
