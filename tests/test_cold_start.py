"""Cold-start contract: importing and running the simulator loads no numpy.

numpy is used only by the functional reference executor
(``repro.graph.reference``), which ``repro.graph`` resolves on first access
to ``execute`` / ``random_weights``.  Every CLI run, ``pimsim serve`` and
each forked pool worker pays for what ``import repro`` loads, so these
tests run fresh interpreters (DESIGN.md "Cold start").
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

#: set first in a child interpreter: any ``import numpy`` then raises.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent,
                          env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_every_surface_loads_no_numpy():
    out = _run("import sys\n"
               "import repro, repro.engine, repro.serve, repro.tune, "
               "repro.runner.cli\n"
               "print('numpy' in sys.modules)")
    assert out.split() == ["False"]


def test_simulates_with_numpy_blocked():
    out = _run(BLOCK_NUMPY + (
        "from repro import simulate, small_chip\n"
        "from repro.engine import Engine, JobSpec\n"
        "print(simulate('lenet5', small_chip()).cycles)\n"
        "with Engine(small_chip()) as engine:\n"
        "    report = engine.run(JobSpec('gpt_tiny', decode_steps=2))\n"
        "print(len(report.meta['decode']['step_cycles']))\n"))
    assert out.split() == ["22387", "2"]


def test_reference_executor_resolves_to_the_functions():
    """``execute`` / ``random_weights`` load numpy on first access only, and
    stay the functions afterwards (a submodule named ``execute`` would have
    rebound the package attribute to itself)."""
    out = _run(
        "import sys\n"
        "import repro.graph\n"
        "print('numpy' in sys.modules)\n"
        "from repro.graph import GraphBuilder, execute, random_weights\n"
        "b = GraphBuilder('t', (1, 4, 4))\n"
        "b.conv(2, kernel=3, padding=1)\n"
        "graph = b.build()\n"
        "out = execute(graph, [[[1.0] * 4] * 4], random_weights(graph))\n"
        "print('numpy' in sys.modules, type(out).__name__,\n"
        "      repro.graph.execute is execute,\n"
        "      repro.graph.random_weights is random_weights,\n"
        "      repro.graph.reference.execute is execute,\n"
        "      {'execute', 'random_weights'} <= set(repro.graph.__all__))\n")
    assert out.split() == ["False", "True", "dict", "True", "True", "True",
                           "True"]
