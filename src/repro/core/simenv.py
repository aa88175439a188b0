"""Planner environments: real (execute in the DBMS) and simulated (AAM).

Both expose the same interface to the planner (Algorithm 1):

* ``begin_episode`` — fetch the original plan/ICP and per-episode context;
* ``advantage``     — Adv(CP_l, CP_r) score in {0, 1, 2};
* ``episode_bounty``— eb for the final estimated-optimal plan;
* ``observe_plan``  — side effects on newly generated plans (real: execute
  under the dynamic timeout into the execution buffer; simulated: collect
  promising plans for validation).

The simulated environment is ``Ê(Γp, θadv)`` from §V: the expert optimizer
is the state transitioner (plan completion happens in the planner itself via
``Γp(Q, ICP)``) and the AAM is the reward indicator, so no plan is executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.aam import AdvantageModel
from repro.core.buffer import ExecutionBuffer
from repro.core.encoding import EncodedPlan, PlanEncoder
from repro.core.icp import IncompletePlan
from repro.core.reward import AdvantageFunction
from repro.engine.backend import EngineBackend
from repro.optimizer.plans import PlanNode, plan_signature
from repro.sql.ast import Query

# The paper's dynamic-timeout factor: 1.5x the original plan's latency.
DYNAMIC_TIMEOUT_FACTOR = 1.5


@dataclass
class EpisodeContext:
    """Per-episode state shared between planner and environment."""

    query: Query
    original_plan: PlanNode
    original_icp: IncompletePlan
    original_latency: float
    timeout_ms: float


# One advantage query: (ctx, left_plan, left_step, right_plan, right_step).
AdvantageRequest = Tuple["EpisodeContext", PlanNode, int, PlanNode, int]
# (model version, query, left plan, left step, right plan, right step).
ScoreKey = Tuple[int, str, str, int, str, int]


class ScoreCache:
    """Discretized AAM advantage scores, keyed by model version and pair.

    The one score cache behind both AAM-scored environments: training's
    :class:`SimulatedEnvironment` and the deployed optimizer's scoring
    environment.  A hit costs one dict probe.  Misses are deduplicated
    within the batch, and both sides of every missed pair go through one
    statevec flush (the AAM's own version-keyed cache, also hit by the
    planner's policy states; hits skip plan encoding) and one
    :meth:`AdvantageModel.predict_scores_from_statevecs` call, so a
    lockstep cohort costs one AAM forward per step.

    Bounded: an insert that would pass ``capacity`` drops the cache
    wholesale first, so a deployed optimizer streaming distinct queries
    cannot accumulate entries forever.
    """

    def __init__(
        self,
        aam: AdvantageModel,
        encoder: PlanEncoder,
        max_steps: int,
        capacity: int = 1_000_000,
    ) -> None:
        self.aam = aam
        self.encoder = encoder
        self.max_steps = max_steps
        self.capacity = capacity
        self._scores: Dict[ScoreKey, int] = {}

    def clear(self) -> None:
        self._scores.clear()

    def scores(self, requests: Sequence[AdvantageRequest], version: int) -> List[int]:
        """Scores for a batch of advantage queries under model ``version``."""
        keys = [
            (
                version,
                ctx.query.signature(),
                plan_signature(left_plan),
                left_step,
                plan_signature(right_plan),
                right_step,
            )
            for ctx, left_plan, left_step, right_plan, right_step in requests
        ]
        out = list(map(self._scores.get, keys))
        if None not in out:
            return out
        misses: Dict[ScoreKey, AdvantageRequest] = {}
        for key, score, request in zip(keys, out, requests):
            if score is None:
                misses.setdefault(key, request)
        pairs = list(misses.values())
        sides = [(ctx.query, plan, step) for ctx, plan, step, _, _ in pairs] + [
            (ctx.query, plan, step) for ctx, _, _, plan, step in pairs
        ]
        vecs = self.aam.statevecs_lazy(
            [
                (query.signature(), plan_signature(plan), (query, plan), step / self.max_steps)
                for query, plan, step in sides
            ],
            self.encoder,
        )
        predicted = self.aam.predict_scores_from_statevecs(
            vecs[: len(pairs)], vecs[len(pairs) :]
        )
        fresh = {key: int(score) for key, score in zip(misses, predicted)}
        if len(self._scores) + len(fresh) > self.capacity:
            self._scores.clear()
        self._scores.update(fresh)
        return [fresh[key] if score is None else score for key, score in zip(keys, out)]


class RealEnvironment:
    """Rewards from true execution latencies (with dynamic timeouts)."""

    def __init__(
        self,
        database: EngineBackend,
        buffer: ExecutionBuffer,
        advantage: Optional[AdvantageFunction] = None,
    ) -> None:
        self.database = database
        self.buffer = buffer
        self.advantage_fn = advantage if advantage is not None else AdvantageFunction()

    # ------------------------------------------------------------------
    def begin_episode(self, query: Query) -> EpisodeContext:
        return self.begin_episode_many([query])[0]

    def begin_episode_many(self, queries: Sequence[Query]) -> List[EpisodeContext]:
        """Fetch original plans and latencies for a cohort in two engine
        batch calls (a sharded backend fans both out across workers)."""
        plannings = self.database.plan_many(queries)
        results = self.database.execute_many(
            [(query, planning.plan, None) for query, planning in zip(queries, plannings)]
        )
        contexts: List[EpisodeContext] = []
        for query, planning, result in zip(queries, plannings, results):
            self.buffer.add(
                query, planning.plan, step=0, latency_ms=result.latency_ms, timed_out=False
            )
            contexts.append(
                EpisodeContext(
                    query=query,
                    original_plan=planning.plan,
                    original_icp=IncompletePlan.extract(planning.plan),
                    original_latency=result.latency_ms,
                    timeout_ms=result.latency_ms * DYNAMIC_TIMEOUT_FACTOR,
                )
            )
        return contexts

    def _ensure_latencies(self, items: Sequence[Tuple[EpisodeContext, PlanNode, int]]) -> None:
        """Execute (in one engine batch call) every plan the buffer lacks.

        Plans are executed and recorded in first-need order — exactly the
        order the sequential path would have inserted them — so downstream
        consumers (reference sets, AAM sample generation) see an identical
        buffer regardless of batching or worker count.
        """
        pending: List[Tuple[EpisodeContext, PlanNode, int]] = []
        seen = set()
        for ctx, plan, step in items:
            key = (ctx.query.signature(), plan_signature(plan))
            if key in seen:
                continue
            if self.buffer.latency_of(ctx.query, plan) is not None:
                continue
            seen.add(key)
            pending.append((ctx, plan, step))
        if not pending:
            return
        results = self.database.execute_many(
            [(ctx.query, plan, ctx.timeout_ms) for ctx, plan, _step in pending]
        )
        for (ctx, plan, step), result in zip(pending, results):
            self.buffer.add(
                ctx.query, plan, step=step, latency_ms=result.latency_ms, timed_out=result.timed_out
            )

    def _latency(self, ctx: EpisodeContext, plan: PlanNode, step: int = 0) -> float:
        """Latency of a plan, memoized through the execution buffer.

        Plans the environment already executed for this query are looked up
        instead of re-run, and fresh executions are recorded — the same
        bookkeeping :class:`SimulatedEnvironment` relies on.
        """
        record = self.buffer.latency_of(ctx.query, plan)
        if record is not None:
            return record.latency_ms
        result = self.database.execute(ctx.query, plan, timeout_ms=ctx.timeout_ms)
        self.buffer.add(
            ctx.query, plan, step=step, latency_ms=result.latency_ms, timed_out=result.timed_out
        )
        return result.latency_ms

    def advantage(
        self,
        ctx: EpisodeContext,
        left_plan: PlanNode,
        left_step: int,
        right_plan: PlanNode,
        right_step: int,
    ) -> int:
        left = self._latency(ctx, left_plan, left_step)
        right = self._latency(ctx, right_plan, right_step)
        return self.advantage_fn.score(left, right)

    def advantage_many(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        """Resolve a batch of advantage queries with one execution flush.

        Both sides of every pair are executed through one
        :meth:`EngineBackend.execute_many` call (missing plans only), then
        scored from the buffer.
        """
        self._ensure_latencies(
            [
                side
                for ctx, left_plan, left_step, right_plan, right_step in requests
                for side in ((ctx, left_plan, left_step), (ctx, right_plan, right_step))
            ]
        )
        return [self.advantage(*request) for request in requests]

    def episode_bounty(self, ctx: EpisodeContext, final_plan: PlanNode, final_step: int) -> float:
        refs = self.buffer.reference_set(ctx.query, ctx.original_latency)
        final_latency = self._latency(ctx, final_plan, final_step)
        scores = [self.advantage_fn.score(ref_lat, final_latency) for ref_lat in refs.latencies]
        return self.advantage_fn.episode_bounty(refs.bounties, scores)

    def episode_bounty_many(
        self, items: Sequence[Tuple[EpisodeContext, PlanNode, int]]
    ) -> List[float]:
        """Batched bounties, identical to the sequential per-item loop.

        Reference sets are snapshotted *before* the final plans are
        executed — the sequential order of operations — which is exchange-
        safe only while the items' queries are distinct.  (Episodes driven
        by the runner never reach the execute fallback anyway: every final
        plan was observed, executed and recorded during its episode.)
        Duplicate-query batches fall back to the exact sequential loop.
        """
        signatures = [ctx.query.signature() for ctx, _final_plan, _final_step in items]
        if len(set(signatures)) < len(items):
            return [self.episode_bounty(*item) for item in items]
        refs = [
            self.buffer.reference_set(ctx.query, ctx.original_latency)
            for ctx, _final_plan, _final_step in items
        ]
        self._ensure_latencies(items)
        bounties: List[float] = []
        for (ctx, final_plan, final_step), ref in zip(items, refs):
            final_latency = self._latency(ctx, final_plan, final_step)
            scores = [self.advantage_fn.score(ref_lat, final_latency) for ref_lat in ref.latencies]
            bounties.append(self.advantage_fn.episode_bounty(ref.bounties, scores))
        return bounties

    def observe_plan(self, ctx: EpisodeContext, icp: IncompletePlan, plan: PlanNode, step: int) -> None:
        self._latency(ctx, plan, step)

    def observe_plan_many(
        self, items: Sequence[Tuple[EpisodeContext, IncompletePlan, PlanNode, int]]
    ) -> None:
        self._ensure_latencies([(ctx, plan, step) for ctx, _icp, plan, step in items])


class SimulatedEnvironment:
    """``Ê(Γp, θadv)``: AAM-scored rewards, no execution (paper §V-A)."""

    def __init__(
        self,
        database: EngineBackend,
        buffer: ExecutionBuffer,
        aam: AdvantageModel,
        encoder: PlanEncoder,
        max_steps: int,
        advantage: Optional[AdvantageFunction] = None,
        validation_capacity: int = 2_000,
    ) -> None:
        self.database = database
        self.buffer = buffer
        self.aam = aam
        self.encoder = encoder
        self.max_steps = max_steps
        self.advantage_fn = advantage if advantage is not None else AdvantageFunction()
        self.aam_version = 0
        self.score_cache = ScoreCache(aam, encoder, max_steps)
        # Promising plans awaiting validation in the real environment.
        self.validation_queue: List[Tuple[Query, PlanNode, int]] = []
        self.validation_capacity = validation_capacity

    # ------------------------------------------------------------------
    def begin_episode(self, query: Query) -> EpisodeContext:
        return self.begin_episode_many([query])[0]

    def begin_episode_many(self, queries: Sequence[Query]) -> List[EpisodeContext]:
        """Original plans for a cohort in one engine batch call.

        The original plan's latency is usually known from prior real
        interaction; the fallbacks (originals are always executed once) are
        flushed through a second batch call.
        """
        plannings = self.database.plan_many(queries)
        missing: List[int] = []
        seen_missing = set()
        for index, (query, planning) in enumerate(zip(queries, plannings)):
            if self.buffer.latency_of(query, planning.plan) is None:
                key = (query.signature(), plan_signature(planning.plan))
                if key not in seen_missing:
                    seen_missing.add(key)
                    missing.append(index)
        if missing:
            results = self.database.execute_many(
                [(queries[i], plannings[i].plan, None) for i in missing]
            )
            for index, result in zip(missing, results):
                self.buffer.add(queries[index], plannings[index].plan, 0, result.latency_ms, False)
        contexts: List[EpisodeContext] = []
        for query, planning in zip(queries, plannings):
            record = self.buffer.latency_of(query, planning.plan)
            original_latency = record.latency_ms
            contexts.append(
                EpisodeContext(
                    query=query,
                    original_plan=planning.plan,
                    original_icp=IncompletePlan.extract(planning.plan),
                    original_latency=original_latency,
                    timeout_ms=original_latency * DYNAMIC_TIMEOUT_FACTOR,
                )
            )
        return contexts

    # ------------------------------------------------------------------
    def bump_aam_version(self) -> None:
        """Invalidate cached scores after the AAM was retrained.

        (Statevecs live in the AAM's own version-keyed cache and cannot go
        stale; only the discretized scores are keyed by this environment.)
        """
        self.aam_version += 1
        self.score_cache.clear()

    def encode(self, query: Query, plan: PlanNode) -> EncodedPlan:
        return self.encoder.encode(query, plan)

    def advantage_many(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        """Resolve a batch of advantage queries through the score cache."""
        return self.score_cache.scores(requests, self.aam_version)

    def advantage(
        self,
        ctx: EpisodeContext,
        left_plan: PlanNode,
        left_step: int,
        right_plan: PlanNode,
        right_step: int,
    ) -> int:
        return self.advantage_many([(ctx, left_plan, left_step, right_plan, right_step)])[0]

    def _bounty_requests(
        self, ctx: EpisodeContext, final_plan: PlanNode, final_step: int
    ) -> List[AdvantageRequest]:
        """The three reference-vs-final advantage queries behind one bounty.

        adv_i is estimated by the AAM for (best, median); the original
        plan's score is also AAM-estimated for consistency with §V.
        """
        ref_records = self.buffer.reference_records(ctx.query, ctx.original_latency)
        requests: List[AdvantageRequest] = [
            (ctx, record.plan, record.step, final_plan, final_step)
            for record in ref_records[:2]
        ]
        while len(requests) < 3:
            requests.append((ctx, ctx.original_plan, 0, final_plan, final_step))
        return requests

    def episode_bounty(self, ctx: EpisodeContext, final_plan: PlanNode, final_step: int) -> float:
        return self.episode_bounty_many([(ctx, final_plan, final_step)])[0]

    def episode_bounty_many(
        self, items: Sequence[Tuple[EpisodeContext, PlanNode, int]]
    ) -> List[float]:
        """Episode bounties for a batch, with one AAM flush for all refs."""
        requests: List[AdvantageRequest] = []
        for ctx, final_plan, final_step in items:
            requests.extend(self._bounty_requests(ctx, final_plan, final_step))
        scores = self.advantage_many(requests)
        bounties: List[float] = []
        for i, (ctx, _, _) in enumerate(items):
            refs = self.buffer.reference_set(ctx.query, ctx.original_latency)
            bounties.append(
                self.advantage_fn.episode_bounty(refs.bounties, scores[3 * i : 3 * i + 3])
            )
        return bounties

    def observe_plan(self, ctx: EpisodeContext, icp: IncompletePlan, plan: PlanNode, step: int) -> None:
        """Collect plans the AAM deems promising for later validation."""
        self.observe_plan_many([(ctx, icp, plan, step)])

    def observe_plan_many(
        self, items: Sequence[Tuple[EpisodeContext, IncompletePlan, PlanNode, int]]
    ) -> None:
        """Batched promising-plan collection (one AAM flush for the cohort)."""
        if len(self.validation_queue) >= self.validation_capacity:
            return
        pending: List[Tuple[EpisodeContext, PlanNode, int]] = []
        for ctx, _icp, plan, step in items:
            if self.buffer.latency_of(ctx.query, plan) is not None:
                continue
            pending.append((ctx, plan, step))
        if not pending:
            return
        scores = self.advantage_many(
            [(ctx, ctx.original_plan, 0, plan, step) for ctx, plan, step in pending]
        )
        for (ctx, plan, step), score in zip(pending, scores):
            if len(self.validation_queue) >= self.validation_capacity:
                return
            if score > 0:
                self.validation_queue.append((ctx.query, plan, step))

    def drain_validation_queue(self) -> List[Tuple[Query, PlanNode, int]]:
        queue, self.validation_queue = self.validation_queue, []
        return queue
