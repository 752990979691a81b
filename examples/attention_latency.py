#!/usr/bin/env python3
"""Attention workload walkthrough: a ViT-tiny latency/energy sweep.

Transformers split their work across the two halves of a PIM core:
per-token projections (Q/K/V, output, MLP) are static weights living in
crossbars, while the attention products (scores = Q.K^T, softmax,
context = scores.V) are *dynamic* — both operands are activations — so
they run as MAC streams on the vector unit.  This example sweeps the
token count (image resolution) and shows how the dynamic share grows:
attention MACs scale with tokens^2 while projection work scales with
tokens, which is exactly why long sequences push PIM designs toward
beefier vector units.

The second axis is the compiler's answer: ``attention_shards`` splits
each dynamic op's token range across a group of cores (per-shard
VMATMUL/VSOFTMAX streams, partial gathers back to the home core — the
same scale-out move the crossbar mapping makes for split conv layers),
so long sequences stop serializing on one core's vector unit.

    python examples/attention_latency.py [--paper] [--depth N] [--dim D]
        [--shards 1,2,4] [--workers N]
"""

import argparse
import dataclasses

from repro import JobSpec, default_engine, paper_chip, small_chip
from repro.analysis import (
    ascii_bars,
    attention_shard_balance,
    attention_share,
    op_class_breakdown,
)
from repro.models import vit_tiny


def _with_shards(config, shards: int):
    return dataclasses.replace(config, compiler=dataclasses.replace(
        config.compiler, attention_shards=shards))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true",
                        help="use the 64-core paper chip (slower)")
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--sizes", default="16,24,32",
                        help="comma-separated input resolutions")
    parser.add_argument("--shards", default="1",
                        help="comma-separated attention_shards values "
                             "(token-range sharding of the dynamic ops)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel sweep workers (process pool)")
    args = parser.parse_args()

    config = paper_chip() if args.paper else small_chip()
    sizes = [int(s) for s in args.sizes.split(",")]
    shard_counts = [int(s) for s in args.shards.split(",")]

    jobs = []
    for size in sizes:
        patch = 4 if size <= 64 else 16
        net = vit_tiny((3, size, size), dim=args.dim, depth=args.depth,
                       heads=args.heads, patch=patch)
        for shards in shard_counts:
            jobs.append(JobSpec(net, _with_shards(config, shards),
                                tag=(size, patch, shards)))
    reports = default_engine().map(jobs, workers=args.workers)

    latencies = {}
    baselines: dict[int, int] = {}
    for report in reports:
        size, patch, shards = report.meta["sweep_tag"]
        tokens = (size // patch) ** 2
        label = f"{size}x{size} ({tokens:>3} tokens) x{shards}"
        latencies[label] = report.latency_ms
        baselines.setdefault(size, report.cycles)
        speedup = baselines[size] / report.cycles
        print(f"ViT-tiny @ {size}x{size} shards={shards}: "
              f"{report.cycles:,} cycles = {report.latency_ms:.3f} ms "
              f"({speedup:.2f}x vs shards={shard_counts[0]}), "
              f"{report.energy_uj:.2f} uJ, "
              f"attention share {attention_share(report):.1%}")
        balance = attention_shard_balance(report)
        if shards > 1 and balance:
            spread = ", ".join(f"c{c}={cyc:,}" for c, cyc in
                               sorted(balance.items(),
                                      key=lambda kv: -kv[1])[:4])
            print(f"    attention vector cycles per core (top 4): {spread}")
        by_op = op_class_breakdown(report)
        busiest = sorted(by_op.items(),
                         key=lambda kv: -sum(kv[1].values()))[:4]
        for op, units in busiest:
            total = sum(units.values())
            where = ", ".join(f"{u}={c:,}" for u, c in
                              sorted(units.items(), key=lambda kv: -kv[1]))
            print(f"    {op:<10} {total:>10,} busy cycles  ({where})")

    print()
    print(ascii_bars(latencies,
                     title="ViT-tiny latency (ms) vs resolution x shards:"))


if __name__ == "__main__":
    main()
