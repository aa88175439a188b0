"""Lockstep batched execution of planner episodes (the FOSS hot path).

Training runs 900 episodes per PPO update (paper Fig. 3); executed one at a
time, every step costs a singleton policy forward plus a singleton AAM
forward.  The runner instead advances a *cohort* of episodes in lockstep:

* one ``(B, ...)`` policy forward per step (:meth:`ActorCritic.act_batch`);
* one statevec forward per step through the planner's shared cache
  (:meth:`Planner.statevec_many`);
* every advantage / promising-plan / bounty query raised by the cohort in a
  step is flushed through the environment's batch API
  (``advantage_many`` / ``observe_plan_many`` / ``episode_bounty_many``),
  which the simulated environment resolves with a single
  :meth:`AdvantageModel.predict_scores` call per flush.

Batch-size invariance: each episode draws a child generator from the
planner's generator *in episode order* when the cohort forms, and samples
its own gumbel noise row.  Scores and statevecs are deterministic given the
model weights, so a fixed seed produces identical trajectories for every
``batch_size`` — ``batch_size=1`` reproduces the sequential
``Planner.run_episode`` loop step for step.  (Against the real environment
this holds as long as a cohort does not mix episodes of the *same* query,
whose interleaved executions can enrich each other's reference sets.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import SwapAction
from repro.core.buffer import Transition
from repro.core.icp import IncompletePlan, minsteps
from repro.core.planner import CandidatePlan, Episode, Planner
from repro.core.simenv import EpisodeContext
from repro.optimizer.plans import PlanNode
from repro.sql.ast import Query

DEFAULT_EPISODE_BATCH_SIZE = 32


def spawn_episode_rng(rng: np.random.Generator) -> np.random.Generator:
    """Derive a per-episode child generator (one parent draw per episode)."""
    return np.random.default_rng(int(rng.integers(0, 2**63)))


class _LiveEpisode:
    """Mutable per-episode state while its cohort is in flight."""

    __slots__ = (
        "query",
        "ctx",
        "rng",
        "icp",
        "plan",
        "seen",
        "best_plan",
        "best_step",
        "candidates",
        "transitions",
        "total_reward",
        "last_swap",
        # per-step scratch, valid between the phases of one lockstep step
        "new_icp",
        "new_plan",
        "is_new",
        "step_reward",
        "pending",
    )

    def __init__(self, query: Query, ctx: EpisodeContext, rng: Optional[np.random.Generator]) -> None:
        self.query = query
        self.ctx = ctx
        self.rng = rng
        self.icp = ctx.original_icp
        self.plan = ctx.original_plan
        self.seen = {self.icp.signature()}
        self.best_plan = ctx.original_plan
        self.best_step = 0
        self.candidates: List[CandidatePlan] = [
            CandidatePlan(plan=self.plan, icp=self.icp, step=0)
        ]
        self.transitions: List[Transition] = []
        self.total_reward = 0.0
        self.last_swap: Optional[SwapAction] = None
        self.new_icp: Optional[IncompletePlan] = None
        self.new_plan: Optional[PlanNode] = None
        self.is_new = False
        self.step_reward = 0.0
        self.pending: Optional[Transition] = None

    def finish(self) -> Episode:
        return Episode(
            query=self.query,
            context=self.ctx,
            candidates=self.candidates,
            best_plan=self.best_plan,
            best_step=self.best_step,
            transitions=self.transitions,
            total_reward=self.total_reward,
        )


class BatchedEpisodeRunner:
    """Runs planner episodes (Algorithm 1) in lockstep cohorts."""

    def __init__(self, planner: Planner, batch_size: int = DEFAULT_EPISODE_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.planner = planner
        self.batch_size = batch_size
        # Scratch buffer for the per-step stacked action masks, reused
        # across cohort steps (the cohort only shrinks, so a handful of
        # shapes recur).  Transitions store the *source* mask rows, never
        # views of this buffer, so reuse cannot corrupt recorded episodes.
        self._mask_pool: dict = {}

    # ------------------------------------------------------------------
    def run(
        self,
        environment,
        queries: Sequence[Query],
        deterministic: bool = False,
        ctxs: Optional[Sequence] = None,
    ) -> List[Episode]:
        """Run one episode per query; results keep the input order.

        ``ctxs`` (request contexts aligned with ``queries``) are sliced
        per cohort and handed to the environment's ``begin_episode_many``.
        """
        episodes: List[Episode] = []
        for start in range(0, len(queries), self.batch_size):
            stop = start + self.batch_size
            episodes.extend(
                self._run_cohort(
                    environment,
                    queries[start:stop],
                    deterministic,
                    None if ctxs is None else ctxs[start:stop],
                )
            )
        return episodes

    # ------------------------------------------------------------------
    def _run_cohort(
        self,
        environment,
        queries: Sequence[Query],
        deterministic: bool,
        ctxs: Optional[Sequence] = None,
    ) -> List[Episode]:
        planner = self.planner
        cfg = planner.config

        # One batch call fetches every episode's original plan/latency (a
        # sharded engine fans the cohort out across workers).
        contexts = self._begin_episode_many(environment, queries, ctxs)

        lives: List[_LiveEpisode] = []
        for query, ctx in zip(queries, contexts):
            # Child generators are drawn in episode order *before* any
            # stepping, so the parent stream advances identically for every
            # batch size (environment calls never touch the planner's rng,
            # so drawing after begin_episode keeps the same parent stream).
            rng = None if deterministic else spawn_episode_rng(planner.rng)
            lives.append(_LiveEpisode(query, ctx, rng))

        active = [ep for ep in lives if ep.icp.num_tables >= 2]

        for t in range(1, cfg.max_steps + 1):
            if not active:
                break
            self._step_cohort(environment, active, t, deterministic)

        return [ep.finish() for ep in lives]

    def _step_cohort(
        self,
        environment,
        active: List[_LiveEpisode],
        t: int,
        deterministic: bool,
    ) -> None:
        planner = self.planner
        cfg = planner.config
        space = planner.action_space

        # Phase 1: action selection — one policy forward for the cohort.
        mask_rows = [
            space.post_swap_mask(ep.icp, ep.last_swap)
            if ep.last_swap is not None
            else space.legality_mask(ep.icp)
            for ep in active
        ]
        key = (len(mask_rows), mask_rows[0].shape[0], mask_rows[0].dtype)
        buf = self._mask_pool.get(key)
        if buf is None:
            if len(self._mask_pool) >= 64:
                self._mask_pool.clear()
            buf = self._mask_pool[key] = np.empty(
                (key[0], key[1]), dtype=mask_rows[0].dtype
            )
        masks = np.stack(mask_rows, out=buf)
        states = planner.statevec_many([(ep.query, ep.plan, t - 1) for ep in active])
        actions, log_probs, values = planner.policy.act_batch(
            states, masks, [ep.rng for ep in active], deterministic
        )

        # Phase 2: apply actions and complete the edited ICPs (Γp(Q, ICP))
        # through one engine batch call for the cohort.
        for ep, action_id in zip(active, actions):
            action = space.decode(int(action_id))
            ep.last_swap = action if isinstance(action, SwapAction) else None
            ep.new_icp = space.apply(int(action_id), ep.icp)
        plannings = self._plan_with_hints_many(
            planner.database,
            [(ep.query, ep.new_icp.order, ep.new_icp.methods) for ep in active],
        )
        for ep, planning in zip(active, plannings):
            ep.new_plan = planning.plan

        # Phase 3: flush every best-vs-new advantage query in one batch.
        scores = self._advantage_many(
            environment,
            [(ep.ctx, ep.best_plan, ep.best_step, ep.new_plan, t) for ep in active],
        )

        # Phase 4: per-episode bookkeeping (rewards, novelty, best update).
        observed: List[Tuple[EpisodeContext, IncompletePlan, PlanNode, int]] = []
        for ep, score in zip(active, scores):
            ep.step_reward = planner.advantage_fn.penalty(
                minsteps(ep.ctx.original_icp, ep.new_icp), t
            )
            ep.is_new = ep.new_icp.signature() not in ep.seen
            if ep.is_new:
                ep.seen.add(ep.new_icp.signature())
                ep.step_reward += score
                observed.append((ep.ctx, ep.new_icp, ep.new_plan, t))
                ep.candidates.append(CandidatePlan(plan=ep.new_plan, icp=ep.new_icp, step=t))
            if score > 0:
                ep.best_plan, ep.best_step = ep.new_plan, t
        self._observe_many(environment, observed)

        # Phase 5: terminal episode bounties, one flush for the cohort.
        if t == cfg.max_steps:
            eligible = [ep for ep in active if ep.is_new]
            if eligible:
                bounties = self._episode_bounty_many(
                    environment, [(ep.ctx, ep.best_plan, ep.best_step) for ep in eligible]
                )
                for ep, bounty in zip(eligible, bounties):
                    ep.step_reward += cfg.reward.eta * bounty

        # Phase 6: record transitions and advance episode state.  Masks come
        # from `mask_rows` (fresh per-episode arrays), not the pooled stack.
        for ep, state, action_id, log_prob, value, mask in zip(
            active, states, actions, log_probs, values, mask_rows
        ):
            ep.transitions.append(
                Transition(
                    state=state,
                    action=int(action_id),
                    reward=ep.step_reward,
                    done=t == cfg.max_steps,
                    value=float(value),
                    log_prob=float(log_prob),
                    action_mask=mask,
                )
            )
            ep.total_reward += ep.step_reward
            ep.icp, ep.plan = ep.new_icp, ep.new_plan

    # ------------------------------------------------------------------
    # environment/engine batch APIs with sequential fallbacks, so any
    # object that satisfies the original single-call protocol still works.
    # ------------------------------------------------------------------
    @staticmethod
    def _begin_episode_many(environment, queries, ctxs=None) -> List[EpisodeContext]:
        batch = getattr(environment, "begin_episode_many", None)
        if batch is None:
            return [environment.begin_episode(query) for query in queries]
        if ctxs is None:
            return batch(queries)
        return batch(queries, ctxs=ctxs)

    @staticmethod
    def _plan_with_hints_many(database, requests):
        batch = getattr(database, "plan_with_hints_many", None)
        if batch is not None:
            return batch(requests)
        return [database.plan_with_hints(*request) for request in requests]

    @staticmethod
    def _advantage_many(environment, requests) -> List[int]:
        batch = getattr(environment, "advantage_many", None)
        if batch is not None:
            return batch(requests)
        return [environment.advantage(*request) for request in requests]

    @staticmethod
    def _observe_many(environment, items) -> None:
        if not items:
            return
        batch = getattr(environment, "observe_plan_many", None)
        if batch is not None:
            batch(items)
            return
        for item in items:
            environment.observe_plan(*item)

    @staticmethod
    def _episode_bounty_many(environment, items) -> List[float]:
        batch = getattr(environment, "episode_bounty_many", None)
        if batch is not None:
            return batch(items)
        return [environment.episode_bounty(*item) for item in items]
