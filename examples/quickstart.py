#!/usr/bin/env python3
"""Quickstart: compile and simulate one network, inspect the outputs.

Runs resnet18 (CIFAR resolution) on the 16-core ``small`` preset so it
finishes in seconds; pass ``--paper`` for the 64-core chip of the paper's
evaluation (Section IV-A).

    python examples/quickstart.py [--paper] [--model NAME]

For many jobs, use the batch/serving front-ends instead of a loop over
``simulate``: ``pimsim batch jobs.json --workers N`` streams one JSONL
report per spec (resumable via ``--output``/``--resume``), and ``pimsim
serve --store jobs.jsonl`` runs a durable HTTP job server over the same
engine (submit/status/result endpoints, crash-safe restarts, graceful
drain — see ``repro.serve``).

For design-space sweeps where bit-exactness doesn't matter, add
``fidelity="fast"`` (or ``--fidelity fast`` on the CLI): the batched
analytic executor returns the same report shape several times faster,
with total cycles within 2% of cycle-accurate across the zoo (see the
Fidelity section of ``repro.engine``).

Autotuning: instead of sweeping knobs by hand, ``pimsim tune <network>``
(or ``repro.tune.Tuner`` — see ``examples/autotune.py``) searches the
mapping / ROB / attention-shard / shard-placement space for you: every
candidate is measured at fast fidelity, and the winner is re-verified
cycle-accurately against both built-in mapping baselines.
"""

import argparse
import dataclasses

from repro import simulate, paper_chip, small_chip, compile_model
from repro.analysis import ascii_bars, comm_ratios, energy_breakdown, timeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="resnet18")
    parser.add_argument("--paper", action="store_true",
                        help="use the paper's 64-core configuration")
    args = parser.parse_args()

    config = paper_chip() if args.paper else small_chip()

    # 1. Compile only: inspect what the compiler produced.
    compiled = compile_model(args.model, config)
    print(compiled.program.summary())
    print()

    # Peek at the first instructions of the first core — the ISA at work.
    first_core = compiled.program.cores_used[0]
    print(compiled.program.program(first_core).listing(limit=12))
    print()

    # 2. Cycle-accurate simulation: latency, energy, power (Fig. 1 outputs).
    report = simulate(args.model, config)
    print(report.summary())
    print()

    # 2b. Fast fidelity: same API and report shape, batched analytic
    # execution (bounded error — handy for wide design-space sweeps).
    fast = simulate(args.model, config, fidelity="fast")
    print(f"fidelity='fast': {fast.cycles:,} cycles vs cycle-accurate "
          f"{report.cycles:,} ({fast.analytic_runs} analytic runs, "
          f"{fast.fallback_events} kernel fallbacks)")
    print()

    # 3. Analysis: where do cycles and joules go?
    print(ascii_bars(energy_breakdown(report), fmt="{:.1%}",
                     title="energy by component:"))
    print()
    ratios = comm_ratios(report)
    worst = dict(sorted(ratios.items(), key=lambda kv: -kv[1])[:8])
    print(ascii_bars(worst, fmt="{:.2f}",
                     title="highest communication-latency ratios:"))
    print()

    # 4. Pipeline timeline (re-run with tracing enabled).
    traced_cfg = dataclasses.replace(
        config, sim=dataclasses.replace(config.sim, trace=True))
    from repro.arch import run_program
    raw = run_program(compile_model(args.model, traced_cfg).program,
                      traced_cfg)
    print(timeline(raw.trace, raw.cycles, buckets=60))
    print()

    # 5. Sessions: an Engine keeps the model/compile caches (and, for
    # parallel batches, a persistent worker pool) warm across requests —
    # this ROB mini-sweep compiles the network exactly once.  See
    # examples/engine_service.py for the full service-style workflow.
    from repro import Engine, JobSpec
    with Engine(config) as engine:
        # workers=1 keeps the sweep in-process so the engine's own cache
        # counters below tell the story; see engine_service.py for pools.
        reports = engine.map([JobSpec(args.model, rob_size=r, tag=r)
                              for r in (1, 8)], workers=1)
        print("engine ROB mini-sweep (compiled once, simulated twice):")
        for report in reports:
            print(f"  rob={report.meta['sweep_tag']}: "
                  f"{report.cycles:,} cycles")
        stats = engine.compile_stats()
        print(f"  compile cache: {stats['misses']} miss, "
              f"{stats['hits']} hits")
        # Pooled runs (workers>1) are self-healing: crashed workers are
        # respawned in their lane, the jobs they owned are retried
        # (repeat offenders surface as typed JobPoisoned failures), and
        # JobSpec.timeout bounds a job's wall clock (JobTimeout).
        # engine.pool_stats() reports the respawn/retry/timeout
        # counters; `pimsim batch --output run.jsonl --resume` turns the
        # output file into a journal so an interrupted sweep replays
        # only the missing jobs.
        print(f"  worker pool: {engine.pool_stats()}")

        # 6. Autoregressive decode: networks with kv_cache nodes compile
        # once into a step template and replay at every KV extent —
        # engine.run(JobSpec("gpt_tiny", decode_steps=N)) or
        # engine.decode_session("gpt_tiny"); engine.serve_mix() interleaves
        # prefill and decode requests and reports p50/p99 per-step latency.
        # See examples/decode_serving.py and `pimsim decode`.


if __name__ == "__main__":
    main()
