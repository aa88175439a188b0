"""The deployed FOSS optimizer (paper Fig. 1, inference path).

For a query: the expert produces the original plan; each agent's policy
generates a candidate sequence by editing the ICP step by step; the AAM
selects the estimated-optimal plan by comparing candidates in temporal
order (and, with multiple agents, tournaments the per-agent winners).
Optimization time covers expert planning + model inference + plan
completion — but no execution.

The hot path is batched end to end: episodes run through the
:class:`BatchedEpisodeRunner` (``optimize_many`` advances all queries'
episodes in lockstep per agent), and each tournament's pairwise advantage
queries are flushed through one :meth:`AdvantageModel.predict_scores` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.aam import AdvantageModel
from repro.core.encoding import PlanEncoder
from repro.core.icp import IncompletePlan
from repro.core.planner import Episode, Planner
from repro.core.simenv import AdvantageRequest, EpisodeContext, ScoreCache
from repro.engine.backend import EngineBackend
from repro.engine.database import context_expired, deadline_error, split_live
from repro.optimizer.plans import PlanNode
from repro.sql.ast import Query


class OptimizeError(RuntimeError):
    """An optimizer could not produce a plan for the given input.

    This is the single failure type the serving layer exposes: malformed
    SQL, references to unknown tables/columns, and any other parse/bind
    problem surface as one ``OptimizeError`` instead of leaking lexer,
    parser or binder internals to callers.
    """


class DeadlineExceededError(OptimizeError):
    """A request's deadline budget ran out before its work could start.

    Defined here — below the api package — so the engine layer can raise
    it without importing upward; re-exported by :mod:`repro.api.context`,
    which is where serving callers import it from.  Subclasses
    :class:`OptimizeError` so existing handlers degrade gracefully, but
    the serving layer counts it as ``expired``, never ``failures``.
    """


def bind_sql(database: EngineBackend, text: str, name: str = "") -> Query:
    """Parse + bind SQL text through the engine, with typed failure.

    Lex/parse/bind errors are all ``ValueError`` subclasses; anything the
    engine rejects is re-raised as :class:`OptimizeError`.
    """
    try:
        return database.sql(text, name=name)
    except ValueError as exc:
        raise OptimizeError(f"cannot bind SQL for optimization: {exc}") from exc


@dataclass
class OptimizedPlan:
    """FOSS's output for one query."""

    plan: PlanNode
    optimization_ms: float
    candidates_considered: int
    chosen_step: int


class _InferenceEnvironment:
    """A scoring-only environment: AAM advantages, no execution, no rewards.

    ``begin_episode`` must not execute anything (optimization time excludes
    execution), so the context carries a dummy latency.  Advantage queries
    go through the :class:`~repro.core.simenv.ScoreCache` the simulated
    training environment uses, keyed by the AAM's own version.
    """

    def __init__(self, database: EngineBackend, aam: AdvantageModel, encoder: PlanEncoder, max_steps: int) -> None:
        self.database = database
        self.aam = aam
        self.encoder = encoder
        self.max_steps = max_steps
        self.score_cache = ScoreCache(aam, encoder, max_steps)

    def begin_episode(self, query: Query) -> EpisodeContext:
        return self.begin_episode_many([query])[0]

    def begin_episode_many(self, queries: Sequence[Query], ctxs=None) -> List[EpisodeContext]:
        plannings = self.database.plan_many(queries, ctxs=ctxs)
        if ctxs is not None and any(planning is None for planning in plannings):
            # A context expired between the optimizer's own pre-check
            # and the backend batch; fall back to the caller's
            # one-at-a-time path, which reports expiry per item.
            raise DeadlineExceededError(
                "a request's deadline expired during batch planning"
            )
        return [
            EpisodeContext(
                query=query,
                original_plan=planning.plan,
                original_icp=IncompletePlan.extract(planning.plan),
                original_latency=1.0,
                timeout_ms=float("inf"),
            )
            for query, planning in zip(queries, plannings)
        ]

    # ------------------------------------------------------------------
    def advantage_many(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        return self.score_cache.scores(requests, self.aam.version)

    def advantage(self, ctx, left_plan, left_step, right_plan, right_step) -> int:
        return self.advantage_many([(ctx, left_plan, left_step, right_plan, right_step)])[0]

    def episode_bounty(self, ctx, final_plan, final_step) -> float:
        return 0.0

    def episode_bounty_many(self, items) -> List[float]:
        return [0.0 for _ in items]

    def observe_plan(self, ctx, icp, plan, step) -> None:
        return None

    def observe_plan_many(self, items) -> None:
        return None


class FossOptimizer:
    """FOSS as a drop-in optimizer: ``optimize(query) -> plan``."""

    def __init__(
        self,
        database: EngineBackend,
        planners: Sequence[Planner],
        aam: AdvantageModel,
        encoder: PlanEncoder,
        max_steps: int,
        episode_batch_size: int = 32,
    ) -> None:
        if not planners:
            raise ValueError("FOSS needs at least one planner agent")
        from repro.core.batching import BatchedEpisodeRunner

        self.database = database
        self.planners = list(planners)
        self.aam = aam
        self.encoder = encoder
        self.max_steps = max_steps
        self._environment = _InferenceEnvironment(database, aam, encoder, max_steps)
        self._runners = [
            BatchedEpisodeRunner(planner, batch_size=episode_batch_size)
            for planner in self.planners
        ]

    # ------------------------------------------------------------------
    def optimize(self, query, ctx=None) -> OptimizedPlan:
        """Produce the estimated-optimal plan for the query.

        Accepts a bound :class:`Query` or raw SQL text; unparseable or
        unbindable text raises :class:`OptimizeError`.  A
        :class:`~repro.api.context.RequestContext` whose deadline already
        passed raises :class:`DeadlineExceededError` before any episode
        runs.
        """
        if context_expired(ctx):
            raise deadline_error(ctx, "optimization began")
        return self.optimize_many([query])[0]

    def optimize_many(self, queries: Sequence, ctxs=None) -> List[OptimizedPlan]:
        """Optimize a batch of queries, amortizing every forward pass.

        Each agent runs all queries' episodes in lockstep cohorts; the
        per-query agent tournaments are then resolved with one batched
        advantage flush.  Per-query optimization time is the batch wall
        clock divided evenly — the paper's metric, amortized.

        ``ctxs`` (aligned with ``queries``) opts into deadline checking:
        queries whose context already expired never enter a cohort — their
        slot in the returned list holds a :class:`DeadlineExceededError`
        instead of an :class:`OptimizedPlan` (callers that pass ``ctxs``
        must check).  Without ``ctxs`` (or with no expired entries) the
        batch is processed exactly as before, so plans stay bitwise
        identical to pre-context serving.  Traced contexts also ride every
        cohort's planning call, so the engine's spans join the caller's
        trace.
        """
        if not queries:
            return []
        live = split_live(ctxs, len(queries))
        if live is not None:
            out: List = [None] * len(queries)
            for index, result in zip(live, self.optimize_many([queries[i] for i in live])):
                out[index] = result
            return [
                deadline_error(ctx, "optimization began") if result is None else result
                for result, ctx in zip(out, ctxs)
            ]
        queries = [
            bind_sql(self.database, query) if isinstance(query, str) else query
            for query in queries
        ]
        # Only traced batches hand their contexts to the engine; the
        # getattr keeps this duck-typed (no api import below the api
        # layer), and untraced backend calls — and therefore any wire
        # frames — stay identical to context-free ones.
        if ctxs is not None and not any(getattr(ctx, "trace_id", None) for ctx in ctxs):
            ctxs = None
        start = time.perf_counter()
        per_agent: List[List[Episode]] = [
            runner.run(self._environment, queries, deterministic=True, ctxs=ctxs)
            for runner in self._runners
        ]
        results: List[OptimizedPlan] = []
        contexts = [episodes[0].context for episodes in zip(*per_agent)]

        # Tournament: all pairwise (earlier finalist, later finalist)
        # advantage queries for every query, flushed in one batch.
        requests: List[AdvantageRequest] = []
        spans: List[Tuple[int, int]] = []
        for qi in range(len(queries)):
            finalists = [(agent[qi].best_plan, agent[qi].best_step) for agent in per_agent]
            first = len(requests)
            for i in range(len(finalists)):
                for j in range(i + 1, len(finalists)):
                    requests.append(
                        (contexts[qi], finalists[i][0], finalists[i][1], finalists[j][0], finalists[j][1])
                    )
            spans.append((first, len(requests)))
        scores = self._environment.advantage_many(requests) if requests else []

        elapsed_ms = (time.perf_counter() - start) * 1000.0 / len(queries)
        for qi in range(len(queries)):
            finalists = [(agent[qi].best_plan, agent[qi].best_step) for agent in per_agent]
            num_candidates = sum(len(agent[qi].candidates) for agent in per_agent)
            first, _ = spans[qi]
            pair_score = {}
            offset = first
            for i in range(len(finalists)):
                for j in range(i + 1, len(finalists)):
                    pair_score[(i, j)] = scores[offset]
                    offset += 1
            # Temporal-order fold over the precomputed scores: the winner so
            # far (always an earlier finalist) meets each later challenger.
            best_index = 0
            for challenger in range(1, len(finalists)):
                if pair_score[(best_index, challenger)] > 0:
                    best_index = challenger
            best_plan, best_step = finalists[best_index]
            results.append(
                OptimizedPlan(
                    plan=best_plan,
                    optimization_ms=elapsed_ms,
                    candidates_considered=num_candidates,
                    chosen_step=best_step,
                )
            )
        return results
