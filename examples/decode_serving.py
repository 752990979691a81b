#!/usr/bin/env python3
"""Continuous-batching decode serving: prefill + decode on one engine.

An LLM serving mix is two workloads sharing the chip: *prefill* requests
(a whole prompt at once — the classic fixed-extent simulation) and
*decode* requests (one token per step over a growing KV cache).  The
engine compiles each decode network **once** into an
extent-parameterized step template, replays it at every step's KV
extent, and interleaves the steps round-robin with the prefill jobs —
the continuous-batching schedule.  The resulting
:class:`~repro.runner.results.MixReport` carries the per-step latency
distribution serving dashboards are built on: p50/p99 step latency and
mean time-per-output-token (TPOT).

    python examples/decode_serving.py [--workers N] [--steps N] [--paper]
"""

import argparse

from repro import Engine, JobSpec, paper_chip, small_chip


def build_mix(steps: int) -> list[JobSpec]:
    """Two decode requests at different KV depths plus prefill traffic."""
    return [
        JobSpec("gpt_tiny", decode_steps=steps, tag="decode/short-context"),
        JobSpec("gpt_tiny", decode_steps=steps, kv_tokens=32,
                tag="decode/long-context"),
        JobSpec("vit_tiny", tag="prefill/vit_tiny"),
        JobSpec("bert_tiny", tag="prefill/bert_tiny"),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = in-process, default)")
    parser.add_argument("--steps", type=int, default=16,
                        help="decode steps per request (default 16)")
    parser.add_argument("--paper", action="store_true",
                        help="use the paper's 64-core chip instead of small")
    args = parser.parse_args()

    config = paper_chip() if args.paper else small_chip()
    jobs = build_mix(args.steps)

    with Engine(config) as engine:
        print(f"serving {len(jobs)} requests "
              f"({args.workers} worker{'s' if args.workers != 1 else ''}):")
        mix = engine.serve_mix(jobs, workers=args.workers)

        for spec, report in zip(jobs, mix.reports):
            decode = report.meta.get("decode")
            if decode:
                cycles = decode["step_cycles"]
                print(f"  {spec.tag:<22} {len(cycles):>3} steps, "
                      f"kv {decode['kv_tokens']}.."
                      f"{decode['kv_tokens'] + len(cycles) - 1}, "
                      f"{min(cycles):,}..{max(cycles):,} cycles/step")
            else:
                print(f"  {spec.tag:<22} prefill, {report.cycles:,} cycles")

        print()
        print(mix.summary())

        # Serve the same mix again: the prefill programs sit in the
        # engine's compile cache and every decode step replays the one
        # step template, so the warm round recompiles nothing.
        cold = engine.compile_stats()
        engine.serve_mix(jobs, workers=args.workers)
        warm = engine.compile_stats()
        if args.workers <= 1:
            print(f"\ncompiles: {cold['misses']} cold -> "
                  f"{warm['misses'] - cold['misses']} warm "
                  f"({warm['hits'] - cold['hits']} cache hits on the rerun)")
        else:
            print("\nwarm rerun done (compile caches live in the pool "
                  "workers; see engine.pool_stats())")


if __name__ == "__main__":
    main()
