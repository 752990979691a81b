#!/usr/bin/env python3
"""CI fidelity gate: fast-mode cycles must track cycle-accurate cycles.

``fidelity="fast"`` (ROADMAP 3a) batches straight-line instruction runs
through an analytic executor instead of the event kernel.  Its contract
is bounded error, not bit-exactness: this script simulates every zoo
model — CNNs, transformers (unsharded and token-sharded), and the
autoregressive decode path — in both modes and fails if fast-mode total
cycles deviate from cycle-accurate by more than ``TOLERANCE`` anywhere.

Below the totals the two tiers read one latency/energy table
(``repro.arch.units.instruction_costs``: the unit loops and the
``repro.arch.fast`` walker), so the breakdown must agree *exactly*:
:func:`breakdown_mismatches` compares every energy category (float
reassociation only), per-core unit busy cycles / op counts / ROB stall
cycles and per-layer busy cycles, and any difference fails the gate.
``tests/test_fidelity.py`` asserts the same function returns nothing.

It also reports the wall-clock speedup on the acceptance point
(simulate-only vgg8 on the small chip), measured A/B-interleaved so a
noisy shared machine biases both sides equally.

    python tools/check_fidelity.py [model ...]
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch.chip import run_program                      # noqa: E402
from repro.compiler import compile_step_template             # noqa: E402
from repro.config import small_chip, tiny_chip, validate     # noqa: E402
from repro.models import (                                   # noqa: E402
    ATTENTION_MODELS,
    DECODE_MODELS,
    MODELS,
    build_model,
)
from repro.runner.api import compile_model                   # noqa: E402

#: maximum relative total-cycle deviation of fast mode (the acceptance
#: bound; the current executor is exact on the whole zoo, so any slack
#: consumed here is a regression worth reading about in the CI log).
TOLERANCE = 0.02

#: models small enough for the 2x2 tiny chip (everything else needs the
#: 4x4 small chip's crossbar capacity).
_TINY_OK = frozenset({"lenet5", "mlp"})


#: per-core statistics both tiers must report identically.
_PER_CORE_KEYS = ("unit_busy", "unit_ops", "rob_stall_cycles")


def breakdown_mismatches(cycle, fast) -> list[str]:
    """Where a fast run's breakdown differs from the cycle run's.

    Takes two ``RawResult`` / ``SimReport`` objects of one program;
    returns one line per differing energy category (``rel_tol=1e-9``:
    the charges are the same terms summed in a different order), per-core
    ``unit_busy`` / ``unit_ops`` / ``rob_stall_cycles`` entry and
    ``layer_busy`` row.  Empty means the tiers agree below the totals.
    """
    out = []
    for key in sorted(set(cycle.energy_pj) | set(fast.energy_pj)):
        c, f = cycle.energy_pj.get(key), fast.energy_pj.get(key)
        if c is None or f is None \
                or not math.isclose(f, c, rel_tol=1e-9, abs_tol=1e-6):
            out.append(f"energy_pj[{key}]: cycle={c} fast={f}")
    for core in sorted(set(cycle.per_core) | set(fast.per_core)):
        c, f = cycle.per_core.get(core, {}), fast.per_core.get(core, {})
        for key in _PER_CORE_KEYS:
            if c.get(key) != f.get(key):
                out.append(f"per_core[{core}].{key}: "
                           f"cycle={c.get(key)} fast={f.get(key)}")
    for layer in sorted(set(cycle.layer_busy) | set(fast.layer_busy)):
        c, f = cycle.layer_busy.get(layer), fast.layer_busy.get(layer)
        if c != f:
            out.append(f"layer_busy[{layer}]: cycle={c} fast={f}")
    return out


def _configs(name: str):
    base = tiny_chip() if name in _TINY_OK else small_chip()
    cycle = validate(base)
    return cycle, validate(cycle.with_fidelity("fast"))


def _check(label: str, program, cycle_cfg, fast_cfg, failures: list) -> None:
    raw_c = run_program(program, cycle_cfg)
    raw_f = run_program(program, fast_cfg)
    base = max(raw_c.cycles, 1)
    err = abs(raw_f.cycles - raw_c.cycles) / base
    mismatches = breakdown_mismatches(raw_c, raw_f)
    ok = err <= TOLERANCE and not mismatches
    breakdown = f"{len(mismatches)} differ" if mismatches else "equal"
    print(f"{'ok  ' if ok else 'FAIL'} {label:22s} "
          f"cycle={raw_c.cycles:>10,} fast={raw_f.cycles:>10,} "
          f"err={err:.4%} breakdown={breakdown}")
    for line in mismatches[:8]:
        print(f"       {line}")
    if not ok:
        failures.append(label)
    assert raw_f.meta.get("fidelity") == "fast"
    assert "fidelity" not in raw_c.meta  # cycle-mode reports stay unmarked


def _speedup() -> float:
    """A/B-interleaved wall-clock ratio on simulate-only vgg8/small."""
    cycle_cfg, fast_cfg = _configs("vgg8")
    program = compile_model("vgg8", cycle_cfg).program
    run_program(program, cycle_cfg)  # warm both paths before timing
    run_program(program, fast_cfg)
    cycle_s = fast_s = 0.0
    for _ in range(5):
        t0 = time.perf_counter()
        run_program(program, cycle_cfg)
        t1 = time.perf_counter()
        run_program(program, fast_cfg)
        t2 = time.perf_counter()
        cycle_s += t1 - t0
        fast_s += t2 - t1
    return cycle_s / fast_s


def main(argv: list[str]) -> int:
    names = argv or list(MODELS)
    unknown = [n for n in names if n not in MODELS]
    if unknown:
        raise SystemExit(
            f"unknown model(s) {unknown}; known: {sorted(MODELS)}")
    failures: list[str] = []
    for name in names:
        cycle_cfg, fast_cfg = _configs(name)
        if name in DECODE_MODELS:
            template = compile_step_template(build_model(name), cycle_cfg)
            for tokens in (1, 32):
                _check(f"{name}@{tokens}tok", template.resolve(tokens),
                       cycle_cfg, fast_cfg, failures)
            continue
        _check(name, compile_model(name, cycle_cfg).program,
               cycle_cfg, fast_cfg, failures)
        if name in ATTENTION_MODELS:
            sharded = compile_model(name, cycle_cfg,
                                    attention_shards=4).program
            _check(f"{name}_sharded4", sharded, cycle_cfg, fast_cfg,
                   failures)
    speedup = _speedup()
    print(f"\nsimulate-only vgg8/small speedup (A/B interleaved, 5 "
          f"rounds): {speedup:.1f}x")
    if failures:
        print(f"\nfidelity check failed (> {TOLERANCE:.0%} deviation or "
              f"unequal breakdown): {', '.join(failures)}")
        return 1
    print(f"fidelity check ok (every model within {TOLERANCE:.0%}, "
          f"breakdowns equal)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
