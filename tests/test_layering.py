"""Import-direction check: the front half of the stack stays below the model.

``graph`` -> ``isa`` -> ``compiler`` produce programs; ``arch`` / ``engine``
/ ``tune`` / ``serve`` / ``runner`` consume them.  A lower layer importing
an upper one (as codegen once did to precompute run latencies through
``repro.arch.units``) couples program generation to one timing model and
drags the simulator into every compile.  The same walk keeps garbage
collector knobs out of ``src/`` and numpy out of every module but the
reference executor.  Pure AST walk: nothing is imported or
simulated.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
LOWER = ("graph", "isa", "compiler")
UPPER = ("arch", "engine", "tune", "serve", "runner")


def _imported_modules(path: Path):
    """Absolute dotted names of every module ``path`` imports (relative
    imports resolved against its package), function-level ones included."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            for alias in node.names:  # ``from .. import arch``
                yield f"{module}.{alias.name}"


@pytest.mark.parametrize("layer", LOWER)
def test_lower_layers_do_not_import_the_model(layer):
    banned = tuple(f"repro.{upper}" for upper in UPPER)
    offenders = sorted(
        f"{path.relative_to(SRC)} imports {module}"
        for path in (SRC / "repro" / layer).rglob("*.py")
        for module in _imported_modules(path)
        if any(module == b or module.startswith(b + ".") for b in banned))
    assert offenders == []


#: the one module allowed to import numpy (DESIGN.md "Cold start": a heavy
#: optional dependency is imported only by the module that uses it).
NUMPY_USER = Path("repro/graph/reference.py")


def test_only_the_reference_executor_imports_numpy():
    offenders = sorted(
        f"{path.relative_to(SRC)} imports {module}"
        for path in (SRC / "repro").rglob("*.py")
        if path.relative_to(SRC) != NUMPY_USER
        for module in _imported_modules(path)
        if module == "numpy" or module.startswith("numpy."))
    assert offenders == []
    assert "numpy" in set(_imported_modules(SRC / NUMPY_USER))


#: collector knobs: a speed-up that came from one of these would only hide
#: the cyclic garbage a run leaves (DESIGN.md "A finished run is freed by
#: reference counting"), so none may appear in ``src/``.
COLLECTOR_KNOBS = ("disable", "freeze", "set_threshold")


def test_src_sets_no_collector_knob():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "gc" and node.attr in COLLECTOR_KNOBS:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc" \
                    and any(a.name in COLLECTOR_KNOBS for a in node.names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
