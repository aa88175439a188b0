"""Seeded input generation: never-seen JOB SQL for the serving workload.

The program under test only ever receives SQL text.  The text comes from
JOB workloads that the public ``build_workload_by_name`` builds at seeds
derived from the benchmark seed (``chunk_seed``).  Every chunk is one such
workload: 113 queries over 33 templates whose sizes span 4..17 tables.

Two properties keep runs comparable across seeds:

* a chunk is deduplicated (by SQL text and by the query's rendered SQL,
  which is the service memo and engine plan-cache key for unnamed
  queries) against the session's own train/test SQL and against every
  query already emitted, so each request really is cold;
* every prefix of the stream holds each expert-DP work class in a fixed
  share (``WORK_SHARES``).  The expert DP costs from under 1 ms to
  hundreds of ms per query, and its cost follows the shape of the join
  graph more than the table count: spreading each tables-per-query class
  evenly instead, the DP work of the first 400 requests still differed by
  up to 18% between seeds.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from typing import Deque, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.optimizer.dp import OptimizerOptions
from repro.workloads.base import build_workload_by_name

SCALE = 0.03
# Chunks generated at a time: a block mixes the templates of this many
# generated workloads.
BLOCK_WORKLOADS = 8
MAX_DP_TABLES = OptimizerOptions().max_dp_tables
# Share of each work class (floor of 2 * log2 ``dp_work``: half-octaves)
# among JOB queries at this scale, measured over the 48 chunks of stream
# seeds 1-6.  Class 7 takes anything smaller, class 29 anything larger.
WORK_SHARES = {
    7: 0.0619, 8: 0.0118, 9: 0.0487, 10: 0.0686, 11: 0.0612, 12: 0.0450,
    13: 0.0330, 14: 0.0675, 15: 0.0712, 16: 0.1484, 17: 0.0592, 18: 0.0503,
    19: 0.0360, 20: 0.0404, 21: 0.0299, 22: 0.0277, 23: 0.0343, 24: 0.0254,
    25: 0.0304, 26: 0.0149, 27: 0.0149, 28: 0.0105, 29: 0.0088,
}
# Blocks generated in a row to find a query of one class before giving up.
MAX_REFILLS = 4


def chunk_seed(seed: int, index: int) -> int:
    """The JOB generator seed of chunk ``index`` of the stream of ``seed``."""
    return (1_000 + 7_919 * seed + 31 * index) % (2**31 - 1)


def dp_work(aliases: Sequence[str], edges: Iterable[Tuple[str, str]]) -> int:
    """Join candidates the expert's left-deep DP weighs for this join graph.

    The DP extends every connected alias subset by each alias adjacent to
    it; this sums those extensions.  Above ``max_dp_tables`` the expert
    plans greedily, at about n**2 candidates.
    """
    if len(aliases) > MAX_DP_TABLES:
        return len(aliases) ** 2
    neighbours: Dict[str, Set[str]] = {alias: set() for alias in aliases}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    total = 0
    frontier: Set[FrozenSet[str]] = {frozenset([alias]) for alias in aliases}
    while frontier:
        grown: Set[FrozenSet[str]] = set()
        for subset in frontier:
            adjacent = set().union(*(neighbours[alias] for alias in subset)) - subset
            total += len(adjacent)
            grown.update(subset | {alias} for alias in adjacent)
        frontier = grown
    return total


def work_class(work: int) -> int:
    return min(max(int(2 * math.log2(max(work, 1))), min(WORK_SHARES)), max(WORK_SHARES))


class SqlStream:
    """A seeded, replayable stream of distinct never-seen JOB SQL.

    ``item(i)`` returns the i-th ``(sql, num_tables)`` of the stream.  Chunks
    are generated lazily, a block of ``BLOCK_WORKLOADS`` at a time, into one
    pool per work class, in a seeded order.  Each next request comes from
    the class furthest below its share of the stream so far.  Items are
    kept, so two windows can replay the same requests.  ``generation_s``
    accumulates the time spent generating, so a timed window can leave it
    out.
    """

    def __init__(self, seed: int, exclude: Iterable[str] = ()) -> None:
        self.seed = seed
        self.items: List[Tuple[str, int]] = []
        self.generation_s = 0.0
        self._seen: Set[str] = set(exclude)
        self._built = 0
        self._pools: Dict[int, Deque[Tuple[str, int]]] = {c: deque() for c in WORK_SHARES}
        self._emitted: Counter = Counter()
        self._work: Dict[Tuple, int] = {}  # join-graph shape -> dp_work

    def _work_class(self, query) -> int:
        edges = tuple(sorted(tuple(sorted(p.aliases())) for p in query.join_predicates))
        shape = (tuple(sorted(query.aliases)), edges)
        if shape not in self._work:
            self._work[shape] = dp_work(*shape)
        return work_class(self._work[shape])

    def _generate_block(self) -> None:
        start = time.perf_counter()
        fresh: List[Tuple[str, int, int]] = []
        for _ in range(BLOCK_WORKLOADS):
            workload = build_workload_by_name(
                "job", scale=SCALE, seed=chunk_seed(self.seed, self._built)
            )
            self._built += 1
            for wq in workload.all_queries:
                rendered = wq.query.to_sql()
                if wq.sql in self._seen or rendered in self._seen:
                    continue
                self._seen.add(wq.sql)
                self._seen.add(rendered)
                fresh.append((wq.sql, wq.query.num_tables, self._work_class(wq.query)))
        rng = np.random.default_rng([self.seed, self._built])
        for index in rng.permutation(len(fresh)):
            sql, tables, cls = fresh[index]
            self._pools[cls].append((sql, tables))
        self.generation_s += time.perf_counter() - start

    def _next(self) -> Tuple[str, int]:
        served = len(self.items) + 1
        cls = max(WORK_SHARES, key=lambda c: WORK_SHARES[c] * served - self._emitted[c])
        for _ in range(MAX_REFILLS):
            if self._pools[cls]:
                break
            self._generate_block()
        else:
            raise RuntimeError(
                f"no JOB query of work class {cls} in {self._built} generated workloads"
            )
        self._emitted[cls] += 1
        return self._pools[cls].popleft()

    def item(self, index: int) -> Tuple[str, int]:
        while index >= len(self.items):
            self.items.append(self._next())
        return self.items[index]

    def take(self, count: int) -> List[Tuple[str, int]]:
        return [self.item(i) for i in range(count)]


def session_sql(seed: int) -> Tuple[Set[str], List[str]]:
    """The session workload's SQL: every train/test text to exclude from the
    stream (raw and rendered), and the train split's SQL in order."""
    workload = build_workload_by_name("job", scale=SCALE, seed=seed)
    own = set()
    for wq in workload.all_queries:
        own.add(wq.sql)
        own.add(wq.query.to_sql())
    return own, [wq.sql for wq in workload.train]


def describe(requests: Sequence[Tuple[str, int]]) -> Dict:
    """Recorded per run: counts, tables-per-query histogram, greedy share."""
    histogram = Counter(tables for _sql, tables in requests)
    total = len(requests)
    greedy = sum(count for tables, count in histogram.items() if tables > MAX_DP_TABLES)
    return {
        "requests": total,
        "distinct_sql": len({sql for sql, _ in requests}),
        "tables_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "share_above_max_dp_tables": greedy / total if total else 0.0,
        "max_dp_tables": MAX_DP_TABLES,
    }
