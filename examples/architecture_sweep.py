#!/usr/bin/env python3
"""Hardware design-space exploration with Pareto analysis.

Because the ISA decouples software from hardware, the same network
recompiles automatically for every chip shape.  This sweeps a grid over
mesh size, crossbar budget and ROB capacity with :meth:`Tuner.explore
<repro.tune.Tuner.explore>`, prints the full table, and extracts the
latency/energy Pareto front — the exploration workflow the paper's
configurability argument enables.

    python examples/architecture_sweep.py [--model NAME]
"""

import argparse

from repro import small_chip
from repro.tune import Tuner


def label(entry) -> str:
    return ", ".join(f"{path.split('.')[-1]}={value}"
                     for path, value in entry.candidate.params)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="alexnet")
    parser.add_argument("--cores", default="4,16")
    parser.add_argument("--crossbars", default="128,256")
    parser.add_argument("--rob", default="1,8")
    parser.add_argument("--workers", type=int, default=None,
                        help="simulate design points on N worker processes "
                             "(default: all CPUs)")
    args = parser.parse_args()

    config = small_chip()
    space = {
        "chip.cores": [int(c) for c in args.cores.split(",")],
        "core.crossbars_per_core": [int(x) for x in args.crossbars.split(",")],
        "core.rob_size": [int(r) for r in args.rob.split(",")],
    }
    report = Tuner(args.model, config, space=space,
                   workers=args.workers).explore()
    measured = [e for e in report.entries if e.error is None]
    front = report.pareto()

    print(f"{'design point':<44}{'cycles':>14}{'energy (uJ)':>14}"
          f"{'pareto':>8}")
    for entry in measured:
        print(f"{label(entry):<44}{entry.measured['cycles']:>14,}"
              f"{entry.measured['energy_pj'] / 1e6:>14.2f}"
              f"{'  *' if entry in front else '':>8}")
    for entry in report.entries:
        if entry.error is not None:
            print(f"{label(entry):<44}  failed: {entry.error}")
    print()
    print(f"Pareto front ({len(front)} of {len(measured)} points):")
    for entry in front:
        print(f"  {label(entry)}: {entry.measured['cycles']:,} cycles, "
              f"{entry.measured['energy_pj'] / 1e6:.1f} uJ")
    best = front[0]
    latency_ms = best.measured["cycles"] * config.sim.cycle_seconds * 1e3
    print(f"\nfastest design: {label(best)} ({latency_ms:.3f} ms)")


if __name__ == "__main__":
    main()
