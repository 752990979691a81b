#!/usr/bin/env python3
"""Autotuning: let the simulator search the knob space for you.

Runs a ``repro.tune`` search over vit_tiny on the 16-core ``small``
preset: every point of the mapping x ROB x shard x placement grid is
measured at ``fidelity="fast"`` (the analytic tier gated against the
cycle model), and the leaders are re-verified cycle-accurately against
BOTH built-in mapping baselines.

    python examples/autotune.py [--model NAME]
                                [--objective latency|energy|edp]

Equivalent CLI::

    pimsim tune vit_tiny --preset small \
        --output tune.jsonl --report tune-report.json

The ``--output`` journal streams every measurement as it lands, so an
interrupted search resumes with ``--resume`` exactly like
``pimsim batch``.
"""

import argparse

from repro import small_chip
from repro.engine import Engine
from repro.tune import Tuner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vit_tiny")
    parser.add_argument("--objective", default="latency",
                        choices=["latency", "energy", "edp"])
    args = parser.parse_args()

    config = small_chip()
    with Engine(config) as engine:
        tuner = Tuner(args.model, config, objective=args.objective,
                      top_k=2, engine=engine)
        report = tuner.tune()

    # The full measured table, fastest first ([cycle] rows were
    # re-verified, [fast] rows were not).
    print(report.summary())
    print()

    # The headline: the tuned point against both built-in mappings at
    # the preset's defaults, all cycle-verified.
    winner = report.winner_measured["cycles"]
    print(f"{args.model}: tuned best {report.winner.key()} = "
          f"{winner:,} cycles (cycle-verified)")
    for mapping, baseline in report.baselines.items():
        print(f"  {mapping:<18} baseline {baseline['cycles']:>10,} cycles "
              f"-> {report.speedups[mapping]:.2f}x")
    print()
    print("winning config delta vs the preset:")
    for path, delta in report.config_delta.items():
        print(f"  {path}: {delta['base']!r} -> {delta['tuned']!r}")


if __name__ == "__main__":
    main()
