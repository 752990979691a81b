"""Points and results behind ``tests/golden/baseline_fig5.json``.

The golden pins the MNSIM2.0-style behaviour-level baseline
(``repro.baseline.run_baseline``) behind Fig. 5: ``cycles``,
``layer_comm`` and ``layer_compute`` for the six Fig. 5 zoo networks on
the ``mnsim`` preset and the residual and branch test nets on ``small``.
The baseline reuses the compiler's placement, stage homes and
(level, topo, tile) emission order, so a compiler refactor that moves
any of them moves these numbers.

Re-record (ONLY from a commit known to produce the same baseline) with
``PYTHONPATH=src:. python tests/_baseline_golden.py`` from the repo root.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.baseline import run_baseline
from repro.config import get_preset
from repro.graph import Graph
from repro.models import build_model
from tests.conftest import build_branch_net, build_residual_net

__all__ = ["GOLDEN", "points", "results"]

GOLDEN = Path(__file__).parent / "golden" / "baseline_fig5.json"
_FIG5 = ("vgg8", "vgg16", "resnet18", "squeezenet", "googlenet", "alexnet")


def points() -> Iterator[tuple[str, Graph, str]]:
    """``(key, graph, preset)`` per recorded baseline run."""
    for net in _FIG5:
        yield f"{net}/mnsim", build_model(net), "mnsim"
    for graph in (build_residual_net(), build_branch_net()):
        yield f"{graph.name}/small", graph, "small"


def results() -> dict[str, dict]:
    out = {}
    for key, graph, preset in points():
        result = run_baseline(graph, get_preset(preset))
        out[key] = {"cycles": result.cycles,
                    "layer_comm": result.layer_comm,
                    "layer_compute": result.layer_compute}
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(results(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
