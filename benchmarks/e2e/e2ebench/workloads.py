"""Seeded job lists and the drivers that execute them.

A workload is a fixed job list run for whole *passes*; the seed only
orders the jobs (and, for the served workload, picks which submissions
repeat an earlier one), so every count the benchmark reports —
``sim_cycles``, ``sim_energy_uj``, the modelled-component counters — is
the same for every seed and moves only when the program under test does.
"""

from __future__ import annotations

import random
import resource
import signal
import threading
import time
from dataclasses import dataclass, replace

from repro.config import get_preset
from repro.engine import Engine, JobSpec

from . import served
from .tables import WORKLOADS, WorkloadDecl

__all__ = ["Job", "Outcome", "Deadline", "DeadlineExpired", "PRESET",
           "dse_jobs", "rob_jobs", "decode_jobs", "serve_jobs",
           "InProcessWorkload", "ServedWorkload", "make_workload",
           "view_of_report", "view_of_http"]

PRESET = "small"
MAPPINGS = ("utilization_first", "performance_first")
ROB_SIZES = (1, 2, 4, 8, 16, 32)
SERVE_NETWORKS = ("lenet5", "mlp", "gpt_tiny", "bert_tiny")
SERVE_CLIENTS = 2
SERVE_REPEATS_PER_CLIENT = 6
DECODE_STEPS = 48
#: (kv_tokens at the first step, fidelity): a fixed grid inside 1..16 so
#: the pass's simulated totals do not depend on the seed.  8 cycle + 4
#: fast rather than 6 + 6: with two equal classes the pooled p50 would be
#: the slowest sample of the faster class, an extreme statistic.
DECODE_GRID = tuple(
    (kv, ("cycle", "cycle", "fast")[i % 3])
    for i, kv in enumerate((1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 16)))


@dataclass(frozen=True)
class Job:
    spec: JobSpec
    #: job class: ops with one key must report identical cycles.
    key: str
    #: served workload: position (in the same client's list) of the job
    #: this submission repeats; the store must answer it with 200.
    repeat_of: int | None = None


@dataclass
class Outcome:
    """One attempted op: its wall time and what came back."""

    job: Job
    wall_s: float = 0.0
    #: cycles / instructions / energy_pj / retired / steps / fidelity /
    #: step_cycles (see :func:`view_of_report`); None when the op failed
    #: before a report existed.
    view: dict | None = None
    error: str | None = None
    #: ``time.perf_counter()`` when the op started (span synthesis).
    started_at: float = 0.0
    #: served workload only.
    post_status: int | None = None
    polls: int = 0
    post_s: float = 0.0
    wait_s: float = 0.0
    refused: bool = False

    def fail(self, reason: str) -> None:
        if self.error is None:
            self.error = reason


class DeadlineExpired(BaseException):
    """The workload's hard deadline passed (BaseException: must not be
    swallowed by an ``except Exception`` inside the program under test)."""


class Deadline:
    """A hard wall-clock limit for one workload.

    Checked between ops; :meth:`arm` additionally sets a real-time timer
    whose handler raises :class:`DeadlineExpired` in the main thread, so
    an op stuck in Python code is broken out of.  Expiry fails the
    remaining ops — the benchmark never hangs.
    """

    def __init__(self, seconds: float) -> None:
        self.at = time.monotonic() + seconds

    def remaining(self) -> float:
        return self.at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def arm(self) -> None:
        def _expire(signum, frame):
            raise DeadlineExpired()
        signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, max(0.001, self.remaining()))

    @staticmethod
    def disarm() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# -- job lists ----------------------------------------------------------------


def _shuffled(items: list, seed: int, salt: str) -> list:
    out = list(items)
    random.Random(f"{seed}/{salt}").shuffle(out)
    return out


def dse_jobs(seed: int) -> list[Job]:
    """The 17 compile points design-space exploration generates."""
    points: list[tuple[str, dict]] = []
    for net in ("vgg8", "vit_tiny", "squeezenet", "bert_tiny", "alexnet",
                "lenet5"):
        for mapping in MAPPINGS:
            points.append((f"{net}/{mapping}", dict(network=net,
                                                     mapping=mapping)))
    for net in ("vit_tiny", "bert_tiny"):
        for shards in (2, 4):
            points.append((f"{net}/shards{shards}",
                           dict(network=net, attention_shards=shards)))
    points.append(("resnet18/performance_first",
                   dict(network="resnet18", mapping="performance_first")))
    jobs = [Job(JobSpec(fidelity="fast", **kw), key) for key, kw in points]
    return _shuffled(jobs, seed, "dse")


def rob_jobs(seed: int) -> list[Job]:
    """The paper's Fig. 4 ROB sweep, cycle-accurate."""
    points = [(net, rob) for net in ("vgg8", "vit_tiny") for rob in ROB_SIZES]
    points += [("resnet18", 4), ("resnet18", 16)]
    jobs = [Job(JobSpec(net, rob_size=rob, fidelity="cycle"),
                f"{net}/rob{rob}") for net, rob in points]
    return _shuffled(jobs, seed, "rob")


def decode_jobs(seed: int) -> list[Job]:
    jobs = [Job(JobSpec("gpt_tiny", decode_steps=DECODE_STEPS, kv_tokens=kv,
                        fidelity=fidelity), f"gpt_tiny/kv{kv}/{fidelity}")
            for kv, fidelity in DECODE_GRID]
    return _shuffled(jobs, seed, "decode")


def serve_jobs(seed: int, pass_index: int) -> list[list[Job]]:
    """One job list per client: 24 grid points + 6 repeats each.

    The 48 points {network} x {mapping} x {rob_size} are dealt over the
    two clients; ``tag`` carries the pass so every pass submits new job
    ids.  Each client resubmits 6 of its own earlier specs (20% of the
    60 submissions) at seeded positions after the original, so on a
    client's sequential connection the original has always settled.
    """
    grid = [(net, mapping, rob) for net in SERVE_NETWORKS
            for mapping in MAPPINGS for rob in ROB_SIZES]
    grid = _shuffled(grid, seed, f"serve/{pass_index}")
    rng = random.Random(f"{seed}/serve-repeats/{pass_index}")
    lanes: list[list[Job]] = []
    for client in range(SERVE_CLIENTS):
        firsts = [Job(JobSpec(net, mapping=mapping, rob_size=rob,
                              fidelity="fast",
                              tag=f"s{seed}-p{pass_index}"),
                      f"{net}/{mapping}/rob{rob}")
                  for net, mapping, rob in grid[client::SERVE_CLIENTS]]
        lanes.append(_with_repeats(firsts, rng))
    return lanes


def _with_repeats(firsts: list[Job], rng: random.Random) -> list[Job]:
    """Insert SERVE_REPEATS_PER_CLIENT resubmissions, each somewhere
    after the job it repeats; ``repeat_of`` is the original's position."""
    n = len(firsts)
    before: dict[int, list[int]] = {}
    for original in rng.sample(range(n), SERVE_REPEATS_PER_CLIENT):
        before.setdefault(rng.randint(original + 1, n), []).append(original)
    lane: list[Job] = []
    position: dict[int, int] = {}
    for i in range(n + 1):
        for original in before.get(i, ()):
            lane.append(replace(firsts[original],
                                repeat_of=position[original]))
        if i < n:
            position[i] = len(lane)
            lane.append(firsts[i])
    return lane


# -- report views ---------------------------------------------------------------


def view_of_report(report) -> dict:
    """The fields the checks and metrics read, from a ``SimReport``."""
    decode = report.meta.get("decode")
    return {
        "cycles": report.cycles,
        "instructions": report.instructions,
        "energy_pj": sum(report.energy_pj.values()),
        # ``issued`` counts ROB allocations; every core program's closing
        # HALT is consumed at dispatch, one per core.
        "retired": sum(core["issued"] + 1
                       for core in report.per_core.values()),
        "steps": decode["steps"] if decode else 1,
        "step_cycles": decode["step_cycles"] if decode else None,
        "fidelity": report.fidelity,
    }


def view_of_http(payload: dict) -> dict:
    """Same, from the JSON a ``GET /jobs/<id>/result`` returned (the HTTP
    resource carries no per-core table, so ``retired`` is unknown)."""
    report = payload["report"]
    return {
        "cycles": report["cycles"],
        "instructions": report["instructions"],
        "energy_pj": sum(report["energy_pj"].values()),
        "retired": None,
        "steps": 1,
        "step_cycles": None,
        "fidelity": report["fidelity"],
    }


def check_view(view: dict) -> str | None:
    """Per-report output check; the reason it fails, or None."""
    if not view["cycles"] > 0:
        return f"cycles={view['cycles']} not > 0"
    retired = view["retired"]
    if retired is not None and retired * view["steps"] != view["instructions"]:
        return (f"retired {retired} x {view['steps']} steps != program "
                f"total_instructions {view['instructions']}")
    return None


# -- drivers ----------------------------------------------------------------------


class InProcessWorkload:
    """``Engine.run`` in this process, one job after another (closed loop
    of one client)."""

    def __init__(self, decl: WorkloadDecl, make_jobs, *,
                 cold: str | None, warm_up) -> None:
        self.decl = decl
        self._make_jobs = make_jobs
        #: when ``engine.clear_caches()`` runs: before every "pass",
        #: before every "job", or never (None).
        self.cold = cold
        self._warm_up = warm_up
        #: ``Engine.compile_stats`` counters moved by the last pass (by
        #: its last job when every job starts cold).
        self.pass_compile_stats: dict[str, int] = {}

    def jobs(self, seed: int, pass_index: int) -> list[list[Job]]:
        return [self._make_jobs(seed)]

    def setup(self, seed: int) -> Engine:
        engine = Engine(get_preset(PRESET))
        self._warm_up(engine, self._make_jobs(seed))
        return engine

    def teardown(self, engine: Engine) -> None:
        engine.close()

    def run_pass(self, engine: Engine, lanes: list[list[Job]],
                 deadline: Deadline) -> list[list[Outcome]]:
        if self.cold == "pass":
            engine.clear_caches()
        outcomes = [Outcome(job) for job in lanes[0]]
        before = engine.compile_stats()
        deadline.arm()
        try:
            for outcome in outcomes:
                start = outcome.started_at = time.perf_counter()
                try:
                    if self.cold == "job":
                        engine.clear_caches()
                        before = engine.compile_stats()
                    report = engine.run(outcome.job.spec)
                    outcome.view = view_of_report(report)
                    reason = check_view(outcome.view)
                    if reason:
                        outcome.fail(reason)
                except Exception as exc:  # the op failed; keep measuring
                    outcome.fail(f"{type(exc).__name__}: {exc}")
                outcome.wall_s = time.perf_counter() - start
        except DeadlineExpired:
            for outcome in outcomes:
                if outcome.view is None:
                    outcome.fail("workload deadline expired")
        finally:
            deadline.disarm()
        self.pass_compile_stats = {
            key: count - before[key]
            for key, count in engine.compile_stats().items()}
        return [outcomes]

    def peak_rss_mb(self, engine: Engine) -> tuple[float | None, str | None]:
        """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_maxrss / 1024.0, None


def _no_warm_up(engine: Engine, jobs: list[Job]) -> None:
    """dse_cold_fast: every timed job is cold by design."""


def _warm_pass(engine: Engine, jobs: list[Job]) -> None:
    """rob_sweep_cycle: compile everything and build the static tables."""
    for job in jobs:
        engine.run(job.spec)


def _warm_template(engine: Engine, jobs: list[Job]) -> None:
    """decode_sessions: one template compile + one step, so lazy imports
    and first-call costs are not charged to the first timed pass."""
    engine.run(replace(jobs[0].spec, decode_steps=1))


def _run_served(client: "served.Client", outcome: Outcome,
                deadline: Deadline) -> None:
    start = outcome.started_at = time.perf_counter()
    result = client.run_job(outcome.job.spec.to_dict(), deadline)
    outcome.post_status = result["post_status"]
    outcome.post_s, outcome.wait_s = result["post_s"], result["wait_s"]
    outcome.polls = result["polls"]
    outcome.refused = result["post_status"] == 503
    if result["error"]:
        outcome.fail(result["error"])
    else:
        outcome.view = view_of_http(result["payload"])
        reason = check_view(outcome.view)
        if reason:
            outcome.fail(reason)
    outcome.wall_s = time.perf_counter() - start


class ServedWorkload:
    """A real ``pimsim serve`` subprocess and two closed-loop clients."""

    def __init__(self, decl: WorkloadDecl) -> None:
        self.decl = decl

    def jobs(self, seed: int, pass_index: int) -> list[list[Job]]:
        return serve_jobs(seed, pass_index)

    def setup(self, seed: int) -> "served.Server":
        server = served.Server.start(workers=SERVE_CLIENTS, preset=PRESET)
        try:
            # Warm every compile point on both workers: the pool deals
            # round-robin, so two consecutive submissions of one point
            # land on the two workers.
            with served.Client(server.port, timeout=60.0) as client:
                for net in SERVE_NETWORKS:
                    for mapping in MAPPINGS:
                        for k in range(SERVE_CLIENTS):
                            spec = JobSpec(net, mapping=mapping,
                                           fidelity="fast", tag=f"warm{k}")
                            client.run_job(spec.to_dict(), Deadline(60.0))
        except BaseException:
            server.stop()
            raise
        return server

    def teardown(self, server: "served.Server") -> None:
        server.stop()

    def run_pass(self, server: "served.Server", lanes: list[list[Job]],
                 deadline: Deadline) -> list[list[Outcome]]:
        per_lane = [[Outcome(job) for job in lane] for lane in lanes]
        barrier = threading.Barrier(len(lanes))

        def client_loop(outcomes: list[Outcome]) -> None:
            try:
                with served.Client(server.port,
                                   timeout=max(1.0, deadline.remaining())
                                   ) as client:
                    barrier.wait(timeout=30.0)
                    for outcome in outcomes:
                        if deadline.expired():
                            break
                        _run_served(client, outcome, deadline)
            except Exception as exc:  # connection-level failure
                for outcome in outcomes:
                    if outcome.view is None:
                        outcome.fail(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client_loop, args=(outcomes,),
                                    name=f"e2e-client-{i}")
                   for i, outcomes in enumerate(per_lane)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(1.0, deadline.remaining() + 5.0))
        for outcomes in per_lane:
            for outcome in outcomes:
                if outcome.view is None:
                    outcome.fail("workload deadline expired")
        return per_lane

    def peak_rss_mb(self, server: "served.Server",
                    ) -> tuple[float | None, str | None]:
        return server.peak_rss_mb()


def make_workload(name: str):
    decls = {w.name: w for w in WORKLOADS}
    if name == "dse_cold_fast":
        return InProcessWorkload(decls[name], dse_jobs, cold="pass",
                                 warm_up=_no_warm_up)
    if name == "rob_sweep_cycle":
        return InProcessWorkload(decls[name], rob_jobs, cold=None,
                                 warm_up=_warm_pass)
    if name == "decode_sessions":
        return InProcessWorkload(decls[name], decode_jobs, cold="job",
                                 warm_up=_warm_template)
    if name == "serve_small_http":
        return ServedWorkload(decls[name])
    raise KeyError(f"unknown workload {name!r}; "
                   f"choose from {sorted(decls)}")
