"""Command-line interface: ``pimsim``.

Subcommands mirror the framework workflow (Fig. 1) and the paper's
experiments::

    pimsim run --model resnet18 --preset paper --mapping performance_first
    pimsim compile --model vgg8 --listing 40
    pimsim mappings --model alexnet            # Fig. 3 point
    pimsim rob --model googlenet               # Fig. 4 series
    pimsim mnsim --model resnet18              # Fig. 5 point
    pimsim batch jobs.json --workers 4         # spec file -> JSONL reports
    pimsim batch jobs.json --workers 4 --output run.jsonl --resume
    pimsim serve --store jobs.store.jsonl      # durable HTTP job service
    pimsim decode --model gpt_tiny --steps 32  # compile-once decode
    pimsim decode --mix mix.json --workers 4   # continuous-batching mix
    pimsim tune vit_tiny --objective energy    # exhaustive fast-tier autotune
    pimsim models
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

from ..analysis import ascii_bars, comm_ratios, step_latency_stats
from ..config import FIDELITIES, PRESETS, ArchConfig, get_preset, validate
from ..engine import (Engine, JobFailed, JobSpec, PoolUnavailable,
                      default_engine, load_specs)
from ..engine.journal import Journal
from ..graph import Graph, kv_extent
from ..models import DECODE_MODELS, MODELS
from .api import compile_model, simulate
from .sweep import compare_mappings, compare_with_baseline, sweep_rob

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, choices=sorted(MODELS),
                        help="network name")
    parser.add_argument("--preset", default="paper", choices=sorted(PRESETS),
                        help="architecture preset")
    parser.add_argument("--config", default=None,
                        help="architecture configuration JSON file "
                             "(overrides --preset)")
    parser.add_argument("--imagenet", action="store_true",
                        help="use 224x224 inputs instead of 32x32")


def _int_at_least(minimum: int):
    """argparse type of a count flag: an integer >= ``minimum``, so a bad
    value is a usage error (exit 2) rather than a traceback from deep in a
    run."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _port(text: str) -> int:
    """argparse type of ``--port``: 0 (ephemeral) to 65535."""
    value = _int_at_least(0)(text)
    if value > 65535:
        raise argparse.ArgumentTypeError(f"must be <= 65535, got {value}")
    return value


def _seconds(*, allow_zero: bool):
    """argparse type of a duration flag: a finite number of seconds, > 0
    (or >= 0 with ``allow_zero``), so a bad value is a usage error."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid number: {text!r}") from None
        if not (math.isfinite(value)
                and (value >= 0 if allow_zero else value > 0)):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if allow_zero else '>'} 0 and finite, "
                f"got {text}")
        return value
    return parse


def _load_config(args: argparse.Namespace) -> ArchConfig:
    if args.config:
        return ArchConfig.load(args.config)
    return get_preset(args.preset)


def _network(args: argparse.Namespace) -> Graph:
    """The graph ``--model`` names, at the input size ``--imagenet`` picks."""
    return default_engine().resolve_network(args.model,
                                            imagenet=args.imagenet)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pimsim",
        description="PIMSIM-NN reproduction: ISA-based PIM simulation framework")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile + simulate one network")
    _add_common(run)
    run.add_argument("--mapping", choices=["utilization_first",
                                           "performance_first"])
    run.add_argument("--rob", type=_positive_int, default=None,
                     help="ROB size override")
    run.add_argument("--batch", type=_positive_int, default=1,
                     help="pipelined image stream length (throughput mode)")
    run.add_argument("--shards", type=_positive_int, default=None,
                     help="compiler.attention_shards override (token-sharded "
                          "dynamic attention)")
    run.add_argument("--fidelity", choices=list(FIDELITIES), default=None,
                     help="execution mode: cycle (bit-exact, default) or "
                          "fast (batched analytic, bounded-error)")
    run.add_argument("--json", default=None, help="write the report as JSON")
    run.add_argument("--comm-ratios", action="store_true",
                     help="print per-layer communication ratios")
    run.add_argument("--full-report", action="store_true",
                     help="print the complete per-layer/per-core report")

    comp = sub.add_parser("compile", help="compile only; print program stats")
    _add_common(comp)
    comp.add_argument("--mapping", choices=["utilization_first",
                                            "performance_first"])
    comp.add_argument("--listing", type=_int_at_least(0), default=0,
                      metavar="N",
                      help="print the first N instructions of each core")
    comp.add_argument("--shards", type=_positive_int, default=None,
                      help="compiler.attention_shards override")

    mappings = sub.add_parser("mappings",
                              help="compare both mapping policies (Fig. 3)")
    _add_common(mappings)
    mappings.add_argument("--rob", type=_positive_int, default=1)
    mappings.add_argument("--workers", type=_positive_int, default=1,
                          help="simulate sweep points on N worker processes")
    mappings.add_argument("--fidelity", choices=list(FIDELITIES), default=None,
                          help="execution mode for both runs: cycle "
                               "(bit-exact, default) or fast (batched "
                               "analytic, bounded-error)")

    rob = sub.add_parser("rob", help="sweep ROB sizes (Fig. 4)")
    _add_common(rob)
    rob.add_argument("--workers", type=_positive_int, default=1,
                      help="simulate sweep points on N worker processes")
    rob.add_argument("--sizes", default="1,4,8,12,16",
                     help="comma-separated ROB sizes")
    rob.add_argument("--fidelity", choices=list(FIDELITIES), default=None,
                     help="execution mode for every point: cycle "
                          "(bit-exact, default) or fast (batched "
                          "analytic, bounded-error)")

    mnsim = sub.add_parser("mnsim",
                           help="compare with the MNSIM2.0-style baseline "
                                "(Fig. 5)")
    _add_common(mnsim)

    batch = sub.add_parser(
        "batch",
        help="run a JSON job-spec file on a persistent engine, emit JSONL")
    batch.add_argument("specfile", help="JSON file: one spec, a list, or "
                                        "{'jobs': [...]} (see repro.engine)")
    batch.add_argument("--workers", type=_positive_int, default=1,
                       help="persistent worker processes (default: serial)")
    batch.add_argument("--preset", default="paper", choices=sorted(PRESETS),
                       help="default preset for jobs without a config")
    batch.add_argument("--output", default=None, metavar="PATH",
                       help="write JSONL here instead of stdout (doubles "
                            "as the --resume journal)")
    batch.add_argument("--resume", action="store_true",
                       help="append to --output, skipping every job whose "
                            "id it already settled (requires --output)")
    batch.add_argument("--max-retries", type=_int_at_least(0), default=1,
                       metavar="N",
                       help="resubmissions allowed per job after a worker "
                            "crash before it is quarantined as poisoned "
                            "(pooled runs; default 1)")
    batch.add_argument("--timeout", type=_seconds(allow_zero=False),
                       default=None, metavar="SECONDS",
                       help="per-job wall-clock timeout enforced by the "
                            "pool watchdog; overridden by a spec's own "
                            "timeout (pooled runs; default: none)")
    batch.add_argument("--fidelity", choices=list(FIDELITIES), default=None,
                       help="default execution mode for jobs that do not "
                            "set their own (cycle: bit-exact; fast: "
                            "batched analytic, bounded-error)")
    batch.add_argument("--progress", action="store_true",
                       help="print per-job completions to stderr")

    serve = sub.add_parser(
        "serve",
        help="durable HTTP job service over the engine (crash-safe store, "
             "admission control, graceful drain)")
    serve.add_argument("--store", required=True, metavar="PATH",
                       help="crash-safe job journal (JSONL); restarting "
                            "against the same store resumes interrupted "
                            "jobs and serves settled results forever")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8787,
                       help="listen port (0: ephemeral; the resolved port "
                            "is printed to stderr before serving)")
    serve.add_argument("--workers", type=_positive_int, default=None,
                       help="worker processes (default: all CPUs)")
    serve.add_argument("--preset", default="paper", choices=sorted(PRESETS),
                       help="default preset for jobs without a config")
    serve.add_argument("--max-retries", type=_int_at_least(0), default=1,
                       metavar="N",
                       help="worker-crash retries per job before poison "
                            "quarantine (default 1)")
    serve.add_argument("--timeout", type=_seconds(allow_zero=False),
                       default=None, metavar="SECONDS",
                       help="default per-job wall-clock timeout (a spec's "
                            "own timeout overrides it)")
    serve.add_argument("--max-backlog", type=_positive_int, default=None,
                       metavar="N",
                       help="admission high-water mark: unsettled jobs "
                            "beyond this are refused with 503 + "
                            "Retry-After (default: 8 per worker, min 16)")
    serve.add_argument("--max-restarts", type=_int_at_least(0), default=1,
                       metavar="N",
                       help="server crashes a job may be caught running "
                            "through before the store quarantines it as "
                            "poisoned (default 1)")
    serve.add_argument("--fidelity", choices=list(FIDELITIES), default=None,
                       help="default execution mode for jobs that do not "
                            "set their own (applied to the preset "
                            "configuration; a job's fidelity field wins)")
    serve.add_argument("--drain-timeout", type=_seconds(allow_zero=True),
                       default=30.0, metavar="SECONDS",
                       help="on SIGTERM/SIGINT, seconds to let running "
                            "jobs finish before aborting them back to "
                            "the queue (default 30)")

    decode = sub.add_parser(
        "decode",
        help="autoregressive decode: compile-once KV-cache stepping, or a "
             "continuous-batching serving mix (--mix)")
    decode.add_argument("--model", default=None, choices=sorted(MODELS),
                        help="decode network "
                             f"({', '.join(sorted(DECODE_MODELS))})")
    decode.add_argument("--steps", type=_positive_int, default=32, metavar="N",
                        help="decode steps to run (default 32)")
    decode.add_argument("--kv-tokens", type=_positive_int, default=None,
                        metavar="T",
                        help="KV extent at the first step (default: the "
                             "token count the model was built with)")
    decode.add_argument("--mix", default=None, metavar="SPECFILE",
                        help="serving mix instead of a single request: "
                             "JSON job specs (decode requests set "
                             "decode_steps/kv_tokens; others are prefill)")
    decode.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes for --mix (default: serial)")
    decode.add_argument("--preset", default="paper", choices=sorted(PRESETS),
                        help="architecture preset")
    decode.add_argument("--config", default=None,
                        help="architecture configuration JSON file "
                             "(overrides --preset)")
    decode.add_argument("--fidelity", choices=list(FIDELITIES), default=None,
                        help="execution mode: cycle (bit-exact, default) "
                             "or fast (batched analytic, bounded-error)")
    decode.add_argument("--json", default=None, metavar="PATH",
                        help="write the report JSON here")

    tune = sub.add_parser(
        "tune",
        help="autotune over mapping / ROB / shard knobs: every candidate "
             "measured at fast fidelity, leaders re-verified at cycle")
    tune.add_argument("network", choices=sorted(MODELS),
                      help="network name")
    tune.add_argument("--preset", default="paper", choices=sorted(PRESETS),
                      help="base preset")
    tune.add_argument("--config", default=None,
                      help="base architecture configuration JSON file "
                           "(overrides --preset)")
    tune.add_argument("--objective", choices=["latency", "energy", "edp"],
                      default="latency",
                      help="what the tuner minimizes (default latency)")
    tune.add_argument("--top-k", type=_positive_int, default=2, metavar="K",
                      help="fast-fidelity leaders re-verified at cycle "
                           "fidelity (default 2)")
    tune.add_argument("--workers", type=_positive_int, default=1,
                      help="measure candidates on N worker processes")
    tune.add_argument("--output", default=None, metavar="PATH",
                      help="stream measurements to this JSONL journal "
                           "(doubles as the --resume journal)")
    tune.add_argument("--resume", action="store_true",
                      help="replay measurements already in --output "
                           "instead of re-running them")
    tune.add_argument("--report", default=None, metavar="PATH",
                      help="write the full TuneReport JSON here")

    sub.add_parser("models", help="list zoo networks")
    sub.add_parser("presets", help="list architecture presets")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = simulate(args.model, config, mapping=args.mapping,
                      rob_size=args.rob, imagenet=args.imagenet,
                      batch=args.batch, attention_shards=args.shards,
                      fidelity=args.fidelity)
    if args.full_report:
        from ..analysis import full_report
        print(full_report(report))
    else:
        print(report.summary())
    if args.batch > 1:
        throughput = args.batch / report.seconds
        print(f"  throughput: {throughput:,.0f} images/s over the "
              f"{args.batch}-image stream")
    if args.comm_ratios:
        print(ascii_bars(comm_ratios(report), fmt="{:.2f}",
                         title="communication-latency ratio per layer:"))
    if args.json:
        report.save(args.json)
        print(f"report written to {args.json}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = compile_model(args.model, config, mapping=args.mapping,
                           imagenet=args.imagenet,
                           attention_shards=args.shards)
    print(result.summary())
    if args.listing:
        for core in result.program.cores_used:
            print(result.program.program(core).listing(limit=args.listing))
    return 0


def _cmd_mappings(args: argparse.Namespace) -> int:
    config = _load_config(args)
    cmp = compare_mappings(_network(args), config, rob_size=args.rob,
                           workers=args.workers, fidelity=args.fidelity)
    print(f"{args.model}: utilization-first {cmp.utilization.cycles:,} cycles, "
          f"performance-first {cmp.performance.cycles:,} cycles")
    print(ascii_bars({
        "utilization-first latency": 1.0,
        "performance-first latency": cmp.latency_ratio,
        "utilization-first energy": 1.0,
        "performance-first energy": cmp.energy_ratio,
    }, title="normalized to utilization-first (Fig. 3 style):"))
    return 0


def _cmd_rob(args: argparse.Namespace) -> int:
    config = _load_config(args)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    sweep = sweep_rob(_network(args), config, sizes=sizes,
                      workers=args.workers, fidelity=args.fidelity)
    print(ascii_bars(
        {f"ROB {size:>2}": value
         for size, value in sweep.normalized_latency().items()},
        title=f"{args.model}: latency normalized to ROB {min(sizes)} "
              f"(Fig. 4 style):"))
    return 0


def _cmd_mnsim(args: argparse.Namespace) -> int:
    config = _load_config(args) if (args.config or args.preset != "paper") \
        else get_preset("mnsim")
    cmp = compare_with_baseline(_network(args), config)
    print(f"{args.model}: ours {cmp.ours.cycles:,} cycles, "
          f"MNSIM2.0-style baseline {cmp.baseline_cycles:,} cycles")
    print(ascii_bars({
        "MNSIM2.0-style": 1.0,
        "ours": cmp.latency_vs_baseline,
    }, title="latency normalized to the baseline (Fig. 5 style):"))
    return 0


#: ``pimsim batch`` exit-code contract (pinned by tests/test_cli_commands.py):
#: 0 = every job succeeded, 1 = one or more jobs failed (captured in their
#: JSONL error records), 2 = the run itself could not proceed (bad
#: arguments, unrecoverable worker pool).
BATCH_EXIT_OK = 0
BATCH_EXIT_JOB_FAILURES = 1
BATCH_EXIT_FATAL = 2


def _journaled_id(record: dict, ids: dict) -> str | None:
    """The job id of a settled batch-journal record: its ``"id"`` if that
    is one of ``ids``, else derived from its ``"spec"`` (journals written
    before ids, or before a configuration field their specs embed was
    retired), else None."""
    if record.get("id") in ids:
        return record["id"]
    try:
        return JobSpec.from_dict(record["spec"]).job_id()
    except (KeyError, TypeError, ValueError):
        return None


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a job-spec file; emit one JSON record per job (JSONL).

    Each line is ``{"index": i, "id": ..., "spec": {...}, "report":
    {...}}`` (or ``"error"`` instead of ``"report"``), so a single line
    fully describes and reproduces its experiment — specs that relied on
    the ``--preset`` / ``--fidelity`` defaults are emitted with
    them made explicit, and ``id`` is :meth:`JobSpec.job_id` of that
    emitted spec.  Lines stream in completion order; ``index`` maps each
    back to its position in the spec file.

    The output file doubles as a journal: every completion is flushed as
    it lands, so ``--resume`` after a crash (or a Ctrl-C) skips each job
    whose id the journal already settled (once per journaled copy of a
    duplicated spec) and appends the rest — the union of runs equals one
    uninterrupted run, however the spec file was reordered in between.
    Settled records matching no job of the current spec file (an edited
    or removed spec, another ``--preset``) are counted on stderr, not
    honoured.

    A run that executed at least one job appends a final ``{"summary":
    ...}`` line (ok/failed/resumed counts plus the pool's retry /
    poisoned / timeout telemetry); it settles nothing, so ``--resume``
    never mistakes it for a completed job.
    """
    specs = load_specs(args.specfile)
    if args.resume and not args.output:
        print("batch: --resume requires --output (the journal file)",
              file=sys.stderr)
        return BATCH_EXIT_FATAL
    preset = get_preset(args.preset)
    # what runs: each spec with the --fidelity default (its own wins)
    runs = [replace(spec, fidelity=spec.fidelity or args.fidelity)
            for spec in specs]
    ids = [replace(run, config=run.config or preset).job_id()
           for run in runs]
    #: job id -> one "it failed" flag per settled journal record
    settled: dict[str, list[bool]] = {job_id: [] for job_id in ids}
    n_settled = 0
    if args.resume:
        for record, _span in Journal.replay(args.output):
            if "report" not in record and "error" not in record:
                continue  # a summary trailer: settles nothing
            n_settled += 1
            flags = settled.get(_journaled_id(record, settled))
            if flags is not None:
                flags.append("error" in record)
    failures = 0
    pending = []
    for index, job_id in enumerate(ids):
        if settled[job_id]:
            failures += settled[job_id].pop(0)
        else:
            pending.append(index)
    resumed = len(specs) - len(pending)
    unmatched = n_settled - resumed  # each resumed job claimed one record
    if unmatched:
        print(f"batch: {unmatched} journal record(s) match no job in "
              f"{args.specfile} (spec edited or removed, or a different "
              "--preset/--fidelity) and were not resumed", file=sys.stderr)

    journal = None
    if args.output:
        if not args.resume:
            open(args.output, "w").close()  # a fresh run starts empty
        journal = Journal(args.output, fsync=False)
        emit = journal.append
    else:
        def emit(record: dict) -> None:
            print(json.dumps(record), flush=True)
    try:
        with Engine(preset, max_retries=args.max_retries,
                    job_timeout=args.timeout) as engine:
            for position, outcome in engine.as_completed(
                    [runs[index] for index in pending],
                    workers=args.workers, errors="capture"):
                index = pending[position]
                spec_dict = specs[index].to_dict()
                spec_dict.setdefault("config", args.preset)
                if args.fidelity is not None:
                    # like the preset: make the --fidelity default
                    # explicit so the JSONL line reproduces standalone
                    spec_dict.setdefault("fidelity", args.fidelity)
                record: dict = {"index": index, "id": ids[index],
                                "spec": spec_dict}
                if isinstance(outcome, JobFailed):
                    failures += 1
                    record["error"] = outcome.to_dict()
                else:
                    record["report"] = outcome.to_dict()
                emit(record)
                if args.progress:
                    label = (f"failed: {outcome.message}"
                             if isinstance(outcome, JobFailed)
                             else f"{outcome.cycles:,} cycles")
                    print(f"[{index}] {label}", file=sys.stderr)
            # Read the pool counters before the with-block tears the
            # pool down (a closed engine reports zeros).
            pool_stats = engine.pool_stats()
        if pending or not args.resume:
            emit({"summary": {
                "jobs": len(specs), "ok": len(specs) - failures,
                "failed": failures, "resumed": resumed,
                "retried": pool_stats["retries"],
                "poisoned": pool_stats["poisoned"],
                "timeouts": pool_stats["timeouts"]}})
    except PoolUnavailable as exc:
        print(f"batch: worker pool unrecoverable: {exc}", file=sys.stderr)
        return BATCH_EXIT_FATAL
    finally:
        if journal is not None:
            journal.close()
    note = f" ({resumed} resumed from the journal)" if args.resume else ""
    print(f"{len(specs)} jobs{note}, {failures} failed", file=sys.stderr)
    return BATCH_EXIT_JOB_FAILURES if failures else BATCH_EXIT_OK


#: ``pimsim serve`` exit-code contract (pinned by tests/test_serve.py):
#: 0 = clean drain (every running job settled before the deadline),
#: 2 = the server could not start (bad arguments, unbindable port,
#: unreadable store), 3 = the drain deadline expired and the remaining
#: in-flight jobs were aborted back to the queue (the next start against
#: the same store resumes them).  Job *failures* are journaled results,
#: not exit codes — a serve process that drained cleanly exits 0 even if
#: some jobs failed.
SERVE_EXIT_OK = 0
SERVE_EXIT_FATAL = 2
SERVE_EXIT_DRAIN_EXPIRED = 3


def _cmd_serve(args: argparse.Namespace) -> int:
    """Long-lived HTTP job service with a crash-safe store.

    SIGTERM/SIGINT triggers the graceful drain: admissions stop
    (``POST /jobs`` answers 503, ``/readyz`` flips unready), running
    jobs get up to ``--drain-timeout`` seconds to settle, anything
    still in flight after that is aborted and re-journaled ``queued``.
    Every outcome is fsync'd into the store before the process exits.
    """
    from ..serve import JobStore, ServeService, serve_http

    try:
        store = JobStore(args.store, max_restarts=args.max_restarts)
    except (OSError, ValueError) as exc:
        print(f"serve: cannot open store {args.store}: {exc}",
              file=sys.stderr)
        return SERVE_EXIT_FATAL
    config = get_preset(args.preset)
    if args.fidelity is not None:
        config = validate(config.with_fidelity(args.fidelity))
    service = ServeService(store, config=config,
                           workers=args.workers,
                           max_retries=args.max_retries,
                           job_timeout=args.timeout,
                           max_backlog=args.max_backlog)
    try:
        server = serve_http(service, args.host, args.port)
    except OSError as exc:
        print(f"serve: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        service.close()
        return SERVE_EXIT_FATAL
    service.start()
    host, port = server.server_address[:2]
    recovered = store.counts()["queued"]
    print(f"pimsim serve: listening on http://{host}:{port} "
          f"(store {args.store}, {len(store)} jobs journaled, "
          f"{recovered} resumed)", file=sys.stderr, flush=True)

    stop = threading.Event()

    def _request_drain(signum, frame):
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _request_drain)
    # A short poll: shutdown() waits for serve_forever's next one.
    server_thread = threading.Thread(target=server.serve_forever,
                                     kwargs={"poll_interval": 0.05},
                                     daemon=True, name="repro-serve-http")
    server_thread.start()
    # Poll rather than block: the kernel may deliver the signal to any
    # of the server's threads, but the Python-level handler only ever
    # runs on the main thread — an untimed Event.wait() here can sleep
    # through a SIGTERM forever.  The timed wait guarantees the main
    # thread executes bytecode (and any pending handler) twice a second.
    while not stop.wait(0.5):
        pass

    # Drain: stop admissions first (readyz flips unready while the HTTP
    # server keeps answering polls), then wait for in-flight jobs.
    print("pimsim serve: draining "
          f"(deadline {args.drain_timeout:g}s)", file=sys.stderr, flush=True)
    service.begin_drain()
    drained = service.wait_drained(args.drain_timeout)
    aborted = 0 if drained else service.terminate()
    server.shutdown()
    server.server_close()
    service.close()
    counts = {state: n for state, n in store.counts().items() if n}
    if drained:
        print(f"pimsim serve: drained cleanly ({counts})", file=sys.stderr)
        return SERVE_EXIT_OK
    print(f"pimsim serve: drain deadline expired; {aborted} running "
          f"jobs requeued for the next start ({counts})", file=sys.stderr)
    return SERVE_EXIT_DRAIN_EXPIRED


def _decode_extent_error(graph: Graph, kv_tokens: int | None,
                         steps: int) -> str | None:
    """Why ``steps`` decode steps from ``kv_tokens`` cannot run on
    ``graph``'s KV cache, or ``None`` if every step fits."""
    extent = kv_extent(graph)
    if extent is None:
        return (f"--model {graph.name} has no KV cache; choose one of "
                f"{', '.join(sorted(DECODE_MODELS))}")
    first = extent[0] if kv_tokens is None else kv_tokens
    capacity = extent[1]
    if first > capacity:
        return (f"--kv-tokens {first} exceeds the KV capacity of "
                f"{graph.name} ({capacity} tokens)")
    last = first + steps - 1
    if last > capacity:
        return (f"--steps {steps} from KV extent {first} reaches extent "
                f"{last}, beyond the KV capacity of {graph.name} "
                f"({capacity} tokens; at most {capacity - first + 1} steps)")
    return None


def _cmd_decode(args: argparse.Namespace) -> int:
    if bool(args.mix) == bool(args.model):
        print("pimsim decode: pass exactly one of --model or --mix",
              file=sys.stderr)
        return 2
    config = _load_config(args)
    with Engine(config) as engine:
        if args.model:
            error = _decode_extent_error(engine.resolve_network(args.model),
                                         args.kv_tokens, args.steps)
            if error:
                print(f"pimsim decode: {error}", file=sys.stderr)
                return 2
        if args.mix:
            mix = engine.serve_mix(
                [replace(spec, fidelity=spec.fidelity or args.fidelity)
                 for spec in load_specs(args.mix)], workers=args.workers)
            print(mix.summary())
            if args.json:
                Path(args.json).write_text(mix.to_json())
                print(f"mix report written to {args.json}")
            return 0
        report = engine.run(JobSpec(args.model, decode_steps=args.steps,
                                    kv_tokens=args.kv_tokens,
                                    fidelity=args.fidelity))
        print(report.summary())
        stats = step_latency_stats(report)
        print(f"  decode  : {stats['steps']} steps, per-step "
              f"p50={stats['p50_step_ms']:.4f} ms "
              f"p99={stats['p99_step_ms']:.4f} ms "
              f"tpot={stats['tpot_ms']:.4f} ms")
        misses = engine.compile_stats()["template_misses"]
        print(f"  compile : {misses} template compile(s); "
              "steps 2..N replay the warm template")
        if args.json:
            report.save(args.json)
            print(f"report written to {args.json}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Search the design space; print the winner and its speedups.

    Measurements stream to ``--output`` as JSONL while the search runs;
    ``--resume`` against the same journal replays what a previous
    (interrupted) run already measured, exactly like ``pimsim batch``.
    """
    from ..tune import Tuner

    if args.resume and not args.output:
        print("tune: --resume requires --output (the journal file)",
              file=sys.stderr)
        return BATCH_EXIT_FATAL
    config = _load_config(args)
    try:
        with Engine(config) as engine:
            tuner = Tuner(args.network, config, objective=args.objective,
                          top_k=args.top_k, engine=engine,
                          workers=args.workers)
            report = tuner.tune(journal=args.output, resume=args.resume)
    except PoolUnavailable as exc:
        print(f"tune: worker pool unrecoverable: {exc}", file=sys.stderr)
        return BATCH_EXIT_FATAL
    print(report.summary())
    if args.report:
        report.save(args.report)
        print(f"tune report written to {args.report}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "models":
        for name in sorted(MODELS):
            print(name)
        return 0
    if args.command == "presets":
        for name in sorted(PRESETS):
            print(name)
        return 0
    handler = {
        "run": _cmd_run,
        "compile": _cmd_compile,
        "mappings": _cmd_mappings,
        "rob": _cmd_rob,
        "mnsim": _cmd_mnsim,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "decode": _cmd_decode,
        "tune": _cmd_tune,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
