"""The workloads: set-up, timed window, output checks and counters.

Every workload serves or trains over JOB at one fixed scale (``SCALE``,
database seed ``DB_SEED``) through the public ``repro.api`` surface; the
benchmark seed only decides the SQL the program receives.

A measured run (``--trace 0``) sets up ``REPEATS`` times, reports the median
set-up time, and runs the same work on each set-up: ``serve_cold`` one
window of the same requests, ``train`` the same iterations.  Each request
or iteration counts with the best of its ``REPEATS`` timings.  The host's
speed drifts by up to 1.6x over tens of seconds; the best of five timings
spread across the run only reads slow when the whole run was slow, where a
single timing reads slow whenever its own moment was.  A traced run
(``--trace 1``) runs one fixed amount of work on three fresh set-ups:
untraced, with every layer wrapped, untraced again.  The traced one gives
the per-layer metrics; against the last one, the overhead.  ``serve_cold``'s
then serves a traced window against a ``repro-engine`` subprocess, for the
wire layers and the local == remote plan check.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench_checks import DigestLedger, digest, plan_problem, relevant_latencies
from bench_engine import EngineProcess
from bench_inputs import BLOCK_WORKLOADS, SCALE, SqlStream, describe, session_sql
from bench_trace import SpanRecorder, layer_metrics, layer_targets
from repro import obs
from repro.api import FossConfig, FossSession
from repro.core.aam import AAMConfig
from repro.experiments.metrics import geometric_mean_relevant_latency
from repro.optimizer.plans import plan_signature
from repro.workloads.base import build_workload_by_name

DB_SEED = 1
REPEATS = 5
CHECK_SET = 32          # first stream queries: the plan digest
WARMUP_REQUESTS = 8     # cold/remote warm-up: the session's first train SQL
WAIT_S = 120.0
TRAIN_SEED = 23         # every trainer's config seed
TRAIN_ITERATIONS_PER_S = 0.6
# A measured serving window never outruns this many generated requests
# per --seconds (the reference machine serves 20-45 per second).
PREGENERATE_PER_S = 60
# Traced serving runs do fixed work: three local windows of this many
# requests per --seconds, each about a third of --seconds on the
# reference machine, then a remote window of half as many.
TRACE_REQUESTS_PER_S = 10


def model_config(**overrides) -> FossConfig:
    """The doctor every workload deploys: small AAM, bootstrap-only budget."""
    settings = dict(seed=23)
    settings.update(overrides)
    return FossConfig(
        max_steps=3,
        bootstrap_episodes=16,
        aam=AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
            ff_hidden=32, epochs=2,
        ),
        **settings,
    )


# The AAM retrains after every iteration that executed anything, so every
# timed iteration does the same kinds of work: with a threshold of 20 new
# executions, iterations with and without a retrain made the per-episode
# p50 flip between two modes (0.32 IQR over median across runs).
TRAINING = dict(
    episodes_per_update=32,
    aam_retrain_threshold=1,
    validation_budget=40,
    random_sample_episodes=4,
)

# Everything that decides which plans a run serves: runs with equal
# settings and seed must produce equal plan digests.
SETTINGS = (
    f"job@{SCALE}/db{DB_SEED}/inputs4/block{BLOCK_WORKLOADS}/check{CHECK_SET}/"
    f"warmup{WARMUP_REQUESTS}/repeats{REPEATS}/trainer{TRAIN_SEED}/{model_config(**TRAINING)!r}"
)


def settings_key() -> str:
    return f"{zlib.crc32(SETTINGS.encode('utf-8')):08x}"


def machine() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1000.0, q))


@dataclass
class RunContext:
    root: str
    out_dir: str
    seed: int
    seconds: int
    trace: bool


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    record: Dict = field(default_factory=dict)
    # Traced runs: (spans file suffix, recorder, time origin of the file).
    traces: List[Tuple[str, SpanRecorder, float]] = field(default_factory=list)


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    session: FossSession
    service: object
    engine: Optional[EngineProcess]
    timings: Dict[str, float]

    def close(self) -> None:
        try:
            self.service.stop()
        finally:
            try:
                self.session.close()
            finally:
                if self.engine is not None:
                    self.engine.stop()


def deploy(ctx: RunContext, remote: bool, warm: Callable) -> Deployment:
    """One set-up: build, (start the engine), open, bootstrap, warm up."""
    timings: Dict[str, float] = {}
    engine = session = None
    t0 = time.perf_counter()
    try:
        workload = build_workload_by_name("job", scale=SCALE, seed=DB_SEED)
        t1 = time.perf_counter()
        url = ""
        if remote:
            engine = EngineProcess(ctx.root, os.path.join(ctx.out_dir, "engine.log"), DB_SEED)
            url = engine.url
        t2 = time.perf_counter()
        session = FossSession.open(workload, config=model_config(engine_url=url))
        session.trainer().bootstrap()
        t3 = time.perf_counter()
        service = session.service()
        warm(service)
        t4 = time.perf_counter()
    except BaseException:
        if session is not None:
            session.close()
        if engine is not None:
            engine.stop()
        raise
    timings.update(
        workload_build_s=t1 - t0,
        server_start_s=t2 - t1,
        bootstrap_s=t3 - t2,
        warmup_s=t4 - t3,
        setup_s=t4 - t0,
    )
    return Deployment(session, service, engine, timings)


def warm_tickets(sqls: Sequence[str]) -> Callable:
    def warm(service) -> None:
        service.start()
        for sql in sqls:
            result = service.wait(service.submit(sql), timeout=WAIT_S)
            if not result.ok:
                raise RuntimeError(f"warm-up request failed: {result.error}")

    return warm


@dataclass
class Window:
    """One timed window: per-request latencies and served plans."""

    latencies: List[float] = field(default_factory=list)
    requests: List[Tuple[str, int]] = field(default_factory=list)
    plans: List[object] = field(default_factory=list)   # PlanNode or None
    errors: List[str] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    start: float = 0.0
    end: float = 0.0


def ticket_window(service, stream: SqlStream, seconds: float, count: Optional[int],
                  recorder: Optional[SpanRecorder] = None) -> Window:
    """One closed-loop client on the ticket path: submit, then wait."""
    window = Window()
    paused0 = stream.generation_s
    window.start = time.perf_counter()
    while True:
        sql, tables = stream.item(len(window.latencies))
        if recorder is not None:
            recorder.request_id = len(window.latencies)
        t = time.perf_counter()
        result = service.wait(service.submit(sql), timeout=WAIT_S)
        now = time.perf_counter()
        window.latencies.append(now - t)
        window.requests.append((sql, tables))
        if result.ok:
            window.plans.append(result.plan.plan)
            window.queue_waits.append(result.trace["flush"] - result.trace["enqueue"])
        else:
            window.plans.append(None)
            window.errors.append(f"{result.status}: {result.error}")
        elapsed = now - window.start - (stream.generation_s - paused0)
        if (count is not None and len(window.latencies) >= count) or (
            count is None and elapsed >= seconds
        ):
            break
    window.end = time.perf_counter()
    window.wall_s = window.end - window.start - (stream.generation_s - paused0)
    return window


def check_window(backend, window: Window, reference: Dict[str, str], problems: List[str]) -> None:
    """Every outcome ok; every plan complete; repeats of one SQL share one plan."""
    bound: Dict[str, object] = {}
    for (sql, _tables), plan in zip(window.requests, window.plans):
        if plan is None:
            continue
        signature = plan_signature(plan)
        expected = reference.get(sql)
        if expected is not None:
            if signature != expected:
                problems.append(f"plan for one SQL changed between requests: {sql[:80]}")
            continue
        query = bound.get(sql)
        if query is None:
            query = bound[sql] = backend.sql(sql)
        problem = plan_problem(query, plan)
        if problem is not None:
            problems.append(problem)
        reference[sql] = signature
    problems.extend(window.errors[:5])


def serving_counters(deployment: Deployment) -> Dict:
    service_stats = deployment.service.stats()
    keep = ("requests", "served", "failures", "expired", "rejected", "cache_hits",
            "cache_misses", "memo_size", "batches", "max_batch_occupancy")
    return {
        "backend": deployment.session.backend.stats(),
        "service": {key: service_stats[key] for key in keep},
        "remote_calls": remote_calls(),
    }


def remote_calls() -> Dict[str, int]:
    """Remote round trips by op, from the public repro.obs registry."""
    metric = obs.get_registry().get("engine_remote_calls_total")
    if metric is None:
        return {}
    return {labels["kind"]: int(child.value) for labels, child in metric.series()}


def test_split(service, backend, workload, problems: List[str]):
    """The doctor's plans for the session's 19 held-out test SQL, checked,
    with their virtual execution times and the expert plans' (after the window)."""
    test_sql = [wq.sql for wq in workload.test]
    plans = [service.optimize_sql(sql).plan for sql in test_sql]
    queries = [backend.sql(sql) for sql in test_sql]
    for query, plan in zip(queries, plans):
        problem = plan_problem(query, plan)
        if problem is not None:
            problems.append(problem)
    learned, expert = relevant_latencies(backend, queries, plans)
    return plans, learned, expert


def quality(
    deployment: Deployment, check_sql: Sequence[str], problems: List[str]
) -> Tuple[float, str]:
    """gmrl over the test split, and the digest of the check-set and test plans.

    Check-set plans come back from the service (memo hits for anything the
    window served).
    """
    check_plans = [deployment.service.optimize_sql(sql).plan for sql in check_sql]
    test_plans, learned, expert = test_split(
        deployment.service, deployment.session.backend, deployment.session.workload, problems
    )
    return geometric_mean_relevant_latency(learned, expert), digest(check_plans + test_plans)


@dataclass
class ServeInputs:
    """What one serving run sends: the stream, its check set, the warm-up."""

    stream: SqlStream
    check: List[Tuple[str, int]]
    warm: Callable
    inputs_s: float

    @property
    def check_sql(self) -> List[str]:
        return [sql for sql, _tables in self.check]


def serve_inputs(ctx: RunContext, count: int) -> ServeInputs:
    """The stream, with its first ``count`` requests generated before any
    window (generation builds JOB workloads; a window must not pay for it)."""
    t0 = time.perf_counter()
    own, own_train = session_sql(DB_SEED)
    stream = SqlStream(ctx.seed, own)
    stream.take(count)
    check = stream.take(CHECK_SET)
    # Seed-independent warm-up: the stream never repeats the session's SQL.
    warm = warm_tickets(own_train[:WARMUP_REQUESTS])
    return ServeInputs(stream, check, warm, time.perf_counter() - t0)


def check_digest(ctx: RunContext, key: str, plan_digest: str, problems: List[str]) -> None:
    problem = DigestLedger(os.path.join(ctx.out_dir, "digests.json")).check(
        f"{key}/{settings_key()}/{ctx.seed}", plan_digest
    )
    if problem is not None:
        problems.append(problem)


def serve_cold(ctx: RunContext) -> Outcome:
    return serve_traced(ctx) if ctx.trace else serve_measured(ctx)


def serve_measured(ctx: RunContext) -> Outcome:
    """``REPEATS`` windows of the same requests, each on a fresh set-up.

    The first window lasts ``--seconds / REPEATS`` and the others serve as
    many requests; a request's latency is the best of its servings."""
    outcome = Outcome()
    inputs = serve_inputs(ctx, PREGENERATE_PER_S * ctx.seconds // REPEATS)
    windows: List[Window] = []
    setups: List[Dict[str, float]] = []
    reference: Dict[str, str] = {}
    count: Optional[int] = None
    for repeat in range(REPEATS):
        deployment = deploy(ctx, False, inputs.warm)
        setups.append(deployment.timings)
        try:
            window = ticket_window(deployment.service, inputs.stream, ctx.seconds / REPEATS, count)
            check_window(deployment.session.backend, window, reference, outcome.problems)
            if repeat == REPEATS - 1:
                counters = serving_counters(deployment)
                gmrl_value, plan_digest = quality(deployment, inputs.check_sql, outcome.problems)
        finally:
            deployment.close()
        windows.append(window)
        count = len(window.latencies)
        gc.collect()
    check_digest(ctx, "serve", plan_digest, outcome.problems)
    best = np.min([window.latencies for window in windows], axis=0)
    outcome.attempted = sum(len(window.latencies) for window in windows)
    outcome.failed = sum(len(window.errors) for window in windows)
    outcome.metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "throughput_qps": count / float(best.sum()),
        "latency_p50_ms": percentile_ms(best, 50),
        "latency_p90_ms": percentile_ms(best, 90),
        "gmrl": gmrl_value,
        "success_rate": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.record = {
        "setups": setups,
        "inputs_s": inputs.inputs_s,
        "inputs": describe(windows[0].requests),
        "windows": [
            {"requests": len(window.latencies), "wall_s": window.wall_s,
             "latency_p50_ms": percentile_ms(window.latencies, 50)}
            for window in windows
        ],
        "latency_p99_ms": percentile_ms(best, 99),
        "counters": counters,
        "plan_digest": plan_digest,
    }
    return outcome


def serve_traced(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    count = TRACE_REQUESTS_PER_S * ctx.seconds
    inputs = serve_inputs(ctx, count)
    # Untraced windows before (it warms the process) and after the traced
    # one (the overhead's reference); all three must serve the same plans.
    references: List[Window] = []
    setups: List[Dict[str, float]] = []

    def reference_run() -> None:
        deployment = deploy(ctx, False, inputs.warm)
        setups.append(deployment.timings)
        try:
            references.append(ticket_window(deployment.service, inputs.stream, ctx.seconds, count))
        finally:
            deployment.close()
        gc.collect()

    reference_run()
    recorder = SpanRecorder()
    deployment = deploy(ctx, False, inputs.warm)
    try:
        window = traced(recorder, lambda: ticket_window(
            deployment.service, inputs.stream, ctx.seconds, count, recorder
        ))
        stats = deployment.service.stats()
        counters = serving_counters(deployment)
        _gmrl, plan_digest = quality(deployment, inputs.check_sql, outcome.problems)
    finally:
        deployment.close()
    gc.collect()
    reference_run()
    remote = remote_run(ctx, inputs, count // 2, outcome.problems)
    if remote.plan_digest != plan_digest:
        outcome.problems.append("the remote engine served other plans than the local one")
    check_digest(ctx, "serve", plan_digest, outcome.problems)
    # One plan per SQL across all four windows: neither tracing nor the
    # wire may change plans.
    reference: Dict[str, str] = {}
    binder = build_workload_by_name("job", scale=SCALE, seed=DB_SEED).database
    windows = (references[0], window, references[1], remote.window)
    for each in windows:
        check_window(binder, each, reference, outcome.problems)
    outcome.attempted = sum(len(each.latencies) for each in windows)
    outcome.failed = sum(len(each.errors) for each in windows)
    outcome.metrics = layer_metrics(recorder, len(window.latencies))
    outcome.metrics.update(remote.metrics)
    outcome.metrics.update({
        "api.queue_wait.ms_p50": (
            float(np.percentile(window.queue_waits, 50)) * 1000.0 if window.queue_waits else 0.0
        ),
        "api.memo_hit_rate": stats["cache_hit_rate"],
        "api.batch_occupancy_mean": stats["mean_batch_occupancy"],
        "serve.latency_p99_ms": percentile_ms(
            references[0].latencies + references[1].latencies, 99
        ),
    })
    outcome.metrics.update(trace_summary(
        recorder, len(window.latencies), window.wall_s, window.start, window.end,
        references[1].wall_s,
    ))
    outcome.metrics.update(setup_layers(setups[0], inputs.inputs_s))
    outcome.metrics["setup.server_start_s"] = remote.timings["server_start_s"]
    outcome.traces = [("", recorder, window.start), ("-remote", remote.recorder, remote.window.start)]
    outcome.record = {
        "setups": setups,
        "remote_setup": remote.timings,
        "inputs_s": inputs.inputs_s,
        "inputs": describe(window.requests),
        "traced_requests": count,
        "counters": counters,
        "remote_counters": remote.counters,
        "plan_digest": plan_digest,
    }
    return outcome


@dataclass
class RemoteRun:
    window: Window
    recorder: SpanRecorder
    metrics: Dict[str, float]
    counters: Dict
    timings: Dict[str, float]
    plan_digest: str


def remote_run(ctx: RunContext, inputs: ServeInputs, count: int, problems: List[str]) -> RemoteRun:
    """The stream's first ``count`` requests, traced, against a
    ``repro-engine`` subprocess: the wire layers (pickle frames, pooled
    sockets, the client memo) and the local == remote plan contract."""
    recorder = SpanRecorder()
    deployment = deploy(ctx, True, inputs.warm)
    try:
        calls_before = remote_calls()
        window = traced(recorder, lambda: ticket_window(
            deployment.service, inputs.stream, ctx.seconds, count, recorder
        ))
        calls_after = remote_calls()
        counters = serving_counters(deployment)
        _gmrl, plan_digest = quality(deployment, inputs.check_sql, problems)
        server_rss = deployment.engine.peak_rss_mb()
    finally:
        deployment.close()
    gc.collect()
    delta = {k: calls_after.get(k, 0) - calls_before.get(k, 0) for k in calls_after}
    wire = layer_metrics(recorder, len(window.latencies))
    metrics = {
        "engine.remote.plan_many.ms": wire["engine.remote.plan_many.ms"],
        "engine.remote.plan_with_hints_many.ms": wire["engine.remote.plan_with_hints_many.ms"],
        "engine.remote.round_trips": sum(delta.values()),
        "engine.remote.round_trips.plan_many": delta.get("plan_many", 0),
        "engine.remote.round_trips.hint_many": delta.get("hint_many", 0),
        "engine.remote.server_rss_mb": server_rss,
    }
    return RemoteRun(window, recorder, metrics, counters, deployment.timings, plan_digest)


def traced(recorder: SpanRecorder, body: Callable):
    """Run ``body`` with every layer target wrapped and recording."""
    recorder.install(layer_targets())
    recorder.enabled = True
    try:
        return body()
    finally:
        recorder.enabled = False
        recorder.uninstall()


def trace_summary(recorder: SpanRecorder, units: int, wall_s: float, start: float,
                  end: float, reference_wall_s: float) -> Dict[str, float]:
    """Coverage, the uncovered share, overhead and time per unit of work.

    The overhead compares against the untraced run *after* the traced one:
    the first untraced run is the first work in the process and pays
    one-time costs (measured 10-25% slower), which would hide the overhead.
    """
    coverage = recorder.root_coverage_s(start, end) / (end - start)
    return {
        "trace.coverage": coverage,
        "trace.uncovered_share": 1.0 - coverage,
        "trace.overhead": wall_s / reference_wall_s,
        "trace.request_ms": wall_s * 1000.0 / max(units, 1),
    }


def setup_layers(timings: Dict[str, float], inputs_s: float) -> Dict[str, float]:
    return {
        "setup.workload_build_s": timings["workload_build_s"],
        "setup.bootstrap_s": timings["bootstrap_s"],
        "setup.server_start_s": timings["server_start_s"],
        "setup.warmup_s": timings["warmup_s"],
        "setup.inputs_s": inputs_s,
    }


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
def open_trainer():
    """One set-up: build the session workload, open a trainer, bootstrap.

    Every trainer trains on the session's own train split (the paper's
    protocol) with one fixed config seed, so all follow one trajectory and
    repeat the same work.  The benchmark seed does not enter: the real time and memory of executing policy-chosen plans
    are heavy-tailed, and with seed-derived training SQL episodes/s spread
    15-30% and peak memory 50-67% across seeds (IQR over median, 2-vCPU
    x86 machine), beyond any usable bound.
    """
    t0 = time.perf_counter()
    workload = build_workload_by_name("job", scale=SCALE, seed=DB_SEED)
    t1 = time.perf_counter()
    session = FossSession.open(workload, config=model_config(**TRAINING, seed=TRAIN_SEED))
    try:
        session.trainer().bootstrap()
    except BaseException:
        session.close()
        raise
    t2 = time.perf_counter()
    return session, {
        "workload_build_s": t1 - t0,
        "server_start_s": 0.0,
        "bootstrap_s": t2 - t1,
        "warmup_s": 0.0,
        "setup_s": t2 - t0,
    }


def train_inputs() -> Dict:
    workload = build_workload_by_name("job", scale=SCALE, seed=DB_SEED)
    return describe([(wq.sql, wq.query.num_tables) for wq in workload.train])


def train_window(session, iterations: int, recorder: Optional[SpanRecorder] = None):
    trainer = session.trainer()
    rows = []
    start = time.perf_counter()
    for iteration in range(iterations):
        if recorder is not None:
            recorder.request_id = iteration
        t = time.perf_counter()
        stats = trainer.run_iteration(iteration)
        rows.append({
            "wall_s": time.perf_counter() - t,
            "episodes": stats.episodes,
            "executions": stats.executions,
            "aam_trained": stats.aam_trained,
        })
    return rows, start, time.perf_counter()


def train_counters(session) -> Dict:
    trainer = session.trainer()
    return {
        "backend": session.backend.stats(),
        "buffer_records": trainer.buffer.total_added,
        "aam_version": trainer.aam.version,
    }


def iterations_per_trainer(ctx: RunContext) -> int:
    return max(2, round(ctx.seconds * TRAIN_ITERATIONS_PER_S / REPEATS))


def train(ctx: RunContext) -> Outcome:
    return train_traced(ctx) if ctx.trace else train_measured(ctx)


def train_measured(ctx: RunContext) -> Outcome:
    """``REPEATS`` runs of one trainer's iterations; each iteration counts
    with the best of its wall times."""
    outcome = Outcome()
    iterations = iterations_per_trainer(ctx)
    setups, runs, digests, counters = [], [], [], []
    for _ in range(REPEATS):
        session, timings = open_trainer()
        setups.append(timings)
        try:
            rows, _start, _end = train_window(session, iterations)
            plans, learned, expert = test_split(
                session.service(), session.backend, session.workload, outcome.problems
            )
            counters.append(train_counters(session))
        finally:
            session.close()
        runs.append(rows)
        digests.append(digest(plans))
        del session
        gc.collect()
    if len(set(digests)) != 1:
        outcome.problems.append("repeats of one trainer produced different plans")
    check_digest(ctx, f"train/{iterations}", digests[0], outcome.problems)
    rows = [row for run in runs for row in run]
    best_s = [min(run[i]["wall_s"] for run in runs) for i in range(iterations)]
    episodes = [runs[0][i]["episodes"] for i in range(iterations)]
    per_episode = [wall / count for wall, count in zip(best_s, episodes)]
    outcome.attempted = sum(row["episodes"] for row in rows)
    outcome.metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "throughput_qps": sum(episodes) / sum(best_s),
        "latency_p50_ms": percentile_ms(per_episode, 50),
        "latency_p90_ms": percentile_ms(per_episode, 90),
        "gmrl": geometric_mean_relevant_latency(learned, expert),
        "success_rate": 1.0,  # a failed iteration raises and fails the run
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.record = {
        "setups": setups,
        "inputs": train_inputs(),
        "iterations": runs,
        "iterations_per_trainer": iterations,
        "aam_retrains": sum(row["aam_trained"] for row in rows),
        "counters": counters,
        "plan_digest": digests[0],
    }
    return outcome


# Serving-only per-layer metrics, which training never exercises.
SERVING_LAYERS = (
    "api.queue_wait.ms_p50", "api.memo_hit_rate", "api.batch_occupancy_mean",
    "engine.remote.round_trips", "engine.remote.round_trips.plan_many",
    "engine.remote.round_trips.hint_many", "engine.remote.server_rss_mb",
    "serve.latency_p99_ms",
)


def train_traced(ctx: RunContext) -> Outcome:
    """One trainer's iterations untraced, traced, untraced: same seed, same
    inputs, so the same trajectory and plans each time."""
    outcome = Outcome()
    iterations = iterations_per_trainer(ctx)
    reference_rows: List[List[Dict]] = []
    digests: List[str] = []
    setups: List[Dict[str, float]] = []

    def reference_run() -> None:
        session, timings = open_trainer()
        setups.append(timings)
        try:
            rows, _start, _end = train_window(session, iterations)
            plans, _learned, _expert = test_split(
                session.service(), session.backend, session.workload, outcome.problems
            )
        finally:
            session.close()
        reference_rows.append(rows)
        digests.append(digest(plans))
        gc.collect()

    reference_run()
    session, _timings = open_trainer()
    recorder = SpanRecorder()
    try:
        rows, start, end = traced(recorder, lambda: train_window(session, iterations, recorder))
        plans, _learned, _expert = test_split(
            session.service(), session.backend, session.workload, outcome.problems
        )
        counters = train_counters(session)
    finally:
        session.close()
    digests.append(digest(plans))
    gc.collect()
    reference_run()
    if len(set(digests)) != 1:
        outcome.problems.append("traced and untraced training produced different plans")
    episodes = sum(row["episodes"] for row in rows)
    outcome.attempted = episodes + sum(row["episodes"] for each in reference_rows for row in each)
    outcome.metrics = layer_metrics(recorder, episodes)
    outcome.metrics.update(dict.fromkeys(SERVING_LAYERS, 0.0))
    outcome.metrics.update(trace_summary(
        recorder, episodes, sum(row["wall_s"] for row in rows), start, end,
        sum(row["wall_s"] for row in reference_rows[1]),
    ))
    outcome.metrics.update(setup_layers(setups[0], 0.0))
    outcome.traces = [("", recorder, start)]
    outcome.record = {
        "setups": setups,
        "inputs": train_inputs(),
        "iterations": rows,
        "reference_iterations": reference_rows,
        "counters": counters,
    }
    return outcome


WORKLOADS = {
    "serve_cold": serve_cold,
    "train": train,
}
