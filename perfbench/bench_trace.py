"""Span recording around the public functions of each layer.

The traced run wraps layer entry points on their classes (restored on
exit), so no program file changes.  Each call records a span: name,
start, end, parent span, request id, thread and an item count.  Spans
live in memory and are written out when the run ends.  Some wrappers only
count calls (``spans=False``): cache lookups that run thousands of times
per request, where a span would cost more than the work it measures.

A layer's self time is its span's duration minus the duration of its
child spans; children always run on the parent's thread, nested inside
it, so the subtraction is exact.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# (span name, owner class, attribute, item count from (args, kwargs), record spans)
Target = Tuple[str, type, str, Optional[Callable], bool]


def _len_arg(position: int, keyword: str) -> Callable:
    def count(args, kwargs) -> int:
        value = kwargs.get(keyword) if keyword in kwargs else args[position]
        return len(value)

    return count


def layer_targets() -> List[Target]:
    """Every wrapped entry point, bottom layers last.  Imports stay local:
    the module is imported before ``src`` is on the path."""
    from repro.api.service import OptimizerService
    from repro.core.aam import AAMTrainer, AdvantageModel
    from repro.core.batching import BatchedEpisodeRunner
    from repro.core.encoding import PlanEncoder
    from repro.core.inference import FossOptimizer, _InferenceEnvironment
    from repro.core.planner import Planner
    from repro.core.simenv import SimulatedEnvironment
    from repro.engine.database import Database
    from repro.engine.remote.client import RemoteBackend
    from repro.executor.engine import ExecutionEngine
    from repro.optimizer.dp import PlanEnumerator
    from repro.optimizer.hints import HintedPlanBuilder
    from repro.rl.policy import ActorCritic

    # Item counts name the argument and its position (``self`` is 0).
    queries, requests = _len_arg(1, "queries"), _len_arg(1, "requests")
    return [
        ("api.submit", OptimizerService, "submit", None, True),
        ("api.flush", OptimizerService, "flush", None, True),
        ("sql.bind", Database, "sql", None, True),
        ("core.inference.optimize_many", FossOptimizer, "optimize_many", queries, True),
        ("core.batching.run", BatchedEpisodeRunner, "run", _len_arg(2, "queries"), True),
        ("core.planner.statevec_many", Planner, "statevec_many", requests, True),
        ("core.planner.update", Planner, "update_from_episodes", _len_arg(1, "episodes"), True),
        ("core.encoding.encode_many", PlanEncoder, "encode_many", _len_arg(1, "pairs"), True),
        ("rl.policy.act_batch", ActorCritic, "act_batch", _len_arg(1, "states"), True),
        ("core.aam.statevecs", AdvantageModel, "statevecs_lazy", _len_arg(1, "items"), True),
        ("core.aam.score", AdvantageModel, "predict_scores_from_statevecs",
         _len_arg(1, "vec_l"), True),
        ("core.aam.train", AAMTrainer, "train", _len_arg(1, "samples"), True),
        ("core.aam.advantage_requests", _InferenceEnvironment, "advantage_many", requests, False),
        ("core.aam.advantage_requests", SimulatedEnvironment, "advantage_many", requests, False),
        ("engine.plan_many", Database, "plan_many", queries, True),
        ("engine.plan_with_hints_many", Database, "plan_with_hints_many", requests, True),
        ("engine.execute_many", Database, "execute_many", requests, True),
        ("engine.plan", Database, "plan", None, False),
        ("engine.plan_with_hints", Database, "plan_with_hints", None, False),
        ("engine.execute", Database, "execute", None, False),
        ("optimizer.dp", PlanEnumerator, "optimize", None, True),
        ("optimizer.hints", HintedPlanBuilder, "build", None, True),
        ("executor.execute", ExecutionEngine, "execute", None, True),
        ("engine.remote.plan_many", RemoteBackend, "plan_many", queries, True),
        ("engine.remote.plan_with_hints_many", RemoteBackend, "plan_with_hints_many",
         requests, True),
    ]


class SpanRecorder:
    """In-memory spans plus call/item counters for the wrapped functions."""

    def __init__(self) -> None:
        # (span_id, name, start_s, end_s, parent_id, request_id, thread_id, items)
        self.spans: List[Tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.request_id = -1
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, func: Callable, count: Optional[Callable], spans: bool) -> Callable:
        recorder = self
        local = self._local

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            items = count(args, kwargs) if count is not None else 1
            recorder.calls[name] += 1
            recorder.items[name] += items
            if not spans:
                return func(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent, recorder.request_id,
                     threading.get_ident(), items)
                )

        return wrapper

    def install(self, targets: Sequence[Target]) -> None:
        for name, owner, attribute, count, spans in targets:
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, count, spans))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # ------------------------------------------------------------------
    def durations(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """name -> (durations_ms, self_ms) arrays over its spans."""
        child_ms: Dict[int, float] = defaultdict(float)
        for span_id, _name, start, end, parent, *_rest in self.spans:
            if parent:
                child_ms[parent] += (end - start) * 1000.0
        per_name: Dict[str, Tuple[List[float], List[float]]] = defaultdict(lambda: ([], []))
        for span_id, name, start, end, *_rest in self.spans:
            total = (end - start) * 1000.0
            durs, selfs = per_name[name]
            durs.append(total)
            selfs.append(total - child_ms.get(span_id, 0.0))
        return {
            name: (np.asarray(durs), np.asarray(selfs))
            for name, (durs, selfs) in per_name.items()
        }

    def root_coverage_s(self, window_start: float, window_end: float) -> float:
        """Seconds of the window covered by at least one root span (any thread)."""
        intervals = sorted(
            (max(start, window_start), min(end, window_end))
            for _id, _name, start, end, parent, *_rest in self.spans
            if not parent and end > window_start and start < window_end
        )
        covered = 0.0
        current_start = current_end = None
        for start, end in intervals:
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def write_spans(self, path: str, origin: float) -> None:
        """One JSON array per line: id, name, start_ms, end_ms, parent, request, thread, items."""
        threads: Dict[int, int] = {}
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request, thread, items in self.spans:
                thread_no = threads.setdefault(thread, len(threads))
                handle.write(
                    json.dumps(
                        [span_id, name, round((start - origin) * 1000.0, 4),
                         round((end - origin) * 1000.0, 4), parent, request, thread_no, items]
                    )
                )
                handle.write("\n")


def layer_metrics(recorder: SpanRecorder, units: int) -> Dict[str, float]:
    """The per-layer metrics of one traced window.

    ``units`` is the window's end-to-end work (requests served, or training
    episodes).  ``*.self_ms`` and ``*.ms`` are milliseconds per unit of
    that work (self time and inclusive time); ``ms_per_call``/``ms_p50``/
    ``ms_p90`` are per call; counts are totals over the window.
    """
    stats = recorder.durations()
    per_unit = 1.0 / max(units, 1)
    empty = (np.zeros(0), np.zeros(0))

    def total(name: str) -> float:
        return float(stats.get(name, empty)[0].sum()) * per_unit

    def self_total(name: str) -> float:
        return float(stats.get(name, empty)[1].sum()) * per_unit

    def pct(name: str, q: float) -> float:
        durs = stats.get(name, empty)[0]
        return float(np.percentile(durs, q)) if durs.size else 0.0

    def mean(name: str) -> float:
        durs = stats.get(name, empty)[0]
        return float(durs.mean()) if durs.size else 0.0

    calls = recorder.calls
    items = recorder.items

    def hit_rate(misses: str, lookups: str) -> float:
        return 1.0 - calls[misses] / calls[lookups] if calls[lookups] else 0.0

    advantage = items["core.aam.advantage_requests"]
    return {
        "sql.bind.calls": calls["sql.bind"],
        "sql.bind.ms_per_call": mean("sql.bind"),
        "api.submit.ms_p50": pct("api.submit", 50),
        "api.flush.self_ms": self_total("api.flush"),
        "core.inference.optimize_many.calls": calls["core.inference.optimize_many"],
        "core.inference.optimize_many.self_ms": self_total("core.inference.optimize_many"),
        "core.batching.run.episodes": items["core.batching.run"],
        "core.batching.run.self_ms": self_total("core.batching.run"),
        "core.planner.statevec_many.self_ms": self_total("core.planner.statevec_many"),
        "core.planner.update.ms": total("core.planner.update"),
        "core.encoding.encode_many.plans": items["core.encoding.encode_many"],
        "core.encoding.encode_many.ms": total("core.encoding.encode_many"),
        "rl.policy.act_batch.rows": items["rl.policy.act_batch"],
        "rl.policy.act_batch.ms": total("rl.policy.act_batch"),
        "core.aam.statevecs.rows": items["core.aam.statevecs"],
        "core.aam.statevecs.self_ms": self_total("core.aam.statevecs"),
        "core.aam.score.pairs": items["core.aam.score"],
        "core.aam.score.ms": total("core.aam.score"),
        "core.aam.score_cache_hit_rate": (
            1.0 - items["core.aam.score"] / advantage if advantage else 0.0
        ),
        "core.aam.train.calls": calls["core.aam.train"],
        "core.aam.train.samples": items["core.aam.train"],
        "core.aam.train.ms": total("core.aam.train"),
        "engine.plan_many.items": items["engine.plan_many"],
        "engine.plan_cache_hit_rate": hit_rate("optimizer.dp", "engine.plan"),
        "engine.plan_with_hints_many.items": items["engine.plan_with_hints_many"],
        "engine.hint_cache_hit_rate": hit_rate("optimizer.hints", "engine.plan_with_hints"),
        "engine.execute_many.items": items["engine.execute_many"],
        "engine.latency_cache_hit_rate": hit_rate("executor.execute", "engine.execute"),
        "optimizer.dp.calls": calls["optimizer.dp"],
        "optimizer.dp.self_ms": self_total("optimizer.dp"),
        "optimizer.dp.ms_p90": pct("optimizer.dp", 90),
        "optimizer.hints.calls": calls["optimizer.hints"],
        "optimizer.hints.self_ms": self_total("optimizer.hints"),
        "executor.execute.calls": calls["executor.execute"],
        "executor.execute.self_ms": self_total("executor.execute"),
        "engine.remote.plan_many.ms": total("engine.remote.plan_many"),
        "engine.remote.plan_with_hints_many.ms": total("engine.remote.plan_with_hints_many"),
        "trace.spans": len(recorder.spans),
    }
