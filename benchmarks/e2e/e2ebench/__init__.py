"""End-to-end + per-layer benchmark of the PIMSIM-NN reproduction.

``benchmarks/e2e/run.py`` is the entry point; see ``benchmarks/e2e/README.md``.
Module map:

* :mod:`.tables`    — the declared workloads and metrics (the single source
  of truth that ``BENCHMARK.json`` mirrors);
* :mod:`.stats`     — percentiles, median-pass throughput, the bound/verdict
  comparison behind ``--compare``;
* :mod:`.workloads` — seeded job lists and the per-workload drivers;
* :mod:`.checks`    — output checks (every failure is a failed op);
* :mod:`.served`    — the ``pimsim serve`` subprocess and its HTTP client;
* :mod:`.tracing`   — spans, self time, and the benchmark-driven stage calls;
* :mod:`.probes`    — fixed per-layer micro-measurements for the traced run;
* :mod:`.runner`    — one untraced / traced run of one workload.
"""
