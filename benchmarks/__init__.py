"""The paper-figure benches (``bench_*.py``): a package, so their
``from .conftest import record`` resolves under pytest's default import
mode.  ``benchmarks/e2e`` is the timing harness and runs as a script."""
