#!/usr/bin/env python3
"""The repo's end-to-end + per-layer benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py                       # all 4 workloads
    python3 benchmarks/e2e/run.py --workload dse_cold_fast --seed 12
    python3 benchmarks/e2e/run.py --trace 1             # per-layer numbers
    python3 benchmarks/e2e/run.py --json A.json         # append run records
    python3 benchmarks/e2e/run.py --compare A.json B.json

With one ``--workload`` the last line of standard output is the result
object the benchmark driver reads: ``{"correct", "attempted", "failed",
"metrics"}``.  Exit status is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _bootstrap() -> None:
    """Make ``repro`` and ``e2ebench`` importable without PYTHONPATH."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"e2e benchmark: no simulator sources at {SRC} — run it "
                 "from a checkout of the repository")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="orders the jobs (default 11)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed passes per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced per-layer run instead")
    parser.add_argument("--json", metavar="PATH",
                        help="append the run records to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply each metric's bound to two record files")
    return parser.parse_args(argv)


def _print_record(record: dict) -> None:
    prov = record["provenance"]
    kind = "traced" if record["traced"] else "untraced"
    print(f"\n== {record['workload']} ({kind}, seed {prov['seed']}, "
          f"{record['passes']} passes, {record['attempted']} ops, "
          f"{record['failed']} failed) ==")
    if not record["traced"]:
        print(f"   latency samples: {record['samples']}")
    for name, entry in record["metrics"].items():
        note = record.get("skipped", {}).get(name)
        print(f"   {name:<32}{entry['value']:>16.6g} {entry['unit']}"
              + (f"   [not measured: {note}]" if note else ""))
    for note in record.get("notes", []):
        print(f"   note: {note}")
    for failure in record.get("failures", []):
        print(f"   FAILED: {failure}")
    if record.get("consistency"):
        ratio = record["consistency"]["traced_over_untraced_job_wall"]
        print(f"   traced/untraced job wall: median {ratio['median']:.3f} "
              f"(min {ratio['min']:.3f}, max {ratio['max']:.3f})")
    if record.get("span_file"):
        print(f"   {record['spans']} spans -> {record['span_file']}")


def _append(path: str, records: list[dict]) -> None:
    target = Path(path)
    document = json.loads(target.read_text()) if target.exists() \
        else {"runs": []}
    document["runs"].extend(records)
    target.write_text(json.dumps(document, indent=1))


def _run_one(name: str, args: argparse.Namespace) -> dict:
    from e2ebench import runner
    if args.trace:
        return runner.run_traced(name, args.seed)
    return runner.run_untraced(name, args.seed, args.seconds)


def _run_in_child(name: str, args: argparse.Namespace) -> dict:
    """One workload per process: ``setup_s`` and ``peak_rss_mb`` are
    per-process quantities."""
    from e2ebench.served import scratch_dir
    record_file = scratch_dir() / f"record_{name}.json"
    record_file.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--json", str(record_file)]
    done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=600)
    if not record_file.exists():
        sys.exit(f"e2e benchmark: workload {name} exited "
                 f"{done.returncode} without a record")
    return json.loads(record_file.read_text())["runs"][-1]


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _bootstrap()
    from e2ebench import stats, tables
    from e2ebench.runner import contract_line

    if args.compare:
        base, new = (json.loads(Path(p).read_text()) for p in args.compare)
        verdicts = stats.compare_records(base, new)
        print(stats.format_comparison(verdicts))
        return 1 if any(v.verdict == "regressed" for v in verdicts) else 0

    if args.seed is None:
        args.seed = tables.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = float(tables.RUN_SECONDS)
    known = [w.name for w in tables.WORKLOADS]
    names = args.workload or known
    for name in names:
        if name not in known:
            sys.exit(f"e2e benchmark: unknown workload {name!r}; "
                     f"choose from {known}")

    single = len(names) == 1
    records = [_run_one(name, args) if single else _run_in_child(name, args)
               for name in names]
    for record in records:
        _print_record(record)
    if args.json:
        _append(args.json, records)
    failed = sum(record["failed"] for record in records)
    if single:
        print(json.dumps(contract_line(records[0])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
