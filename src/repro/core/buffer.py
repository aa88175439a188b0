"""Experience buffers: executed-plan records and PPO rollouts.

This is the single home for both experience stores (:mod:`repro.rl`
re-exports the rollout types):

* :class:`ExecutionBuffer` — every plan FOSS has executed in the real
  environment.  It feeds three consumers (paper Fig. 3): reference sets for
  episode bounties, training pairs for the AAM, and the latency lookups
  used when the planner interacts with the real environment.
* :class:`RolloutBuffer` (with :class:`Transition` / :class:`Batch`) —
  per-update PPO rollout storage for the planner agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aam import AAMSample
from repro.core.encoding import PlanEncoder
from repro.core.reward import AdvantageFunction, ReferenceSet
from repro.optimizer.plans import PlanNode, plan_signature
from repro.sql.ast import Query


# ----------------------------------------------------------------------
# PPO rollout storage
# ----------------------------------------------------------------------


@dataclass
class Transition:
    """One environment step in the planner MDP."""

    state: np.ndarray
    action: int
    reward: float
    done: bool
    value: float
    log_prob: float
    action_mask: np.ndarray


@dataclass
class Batch:
    """A minibatch of flattened transitions ready for a PPO epoch."""

    states: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    action_masks: np.ndarray


class RolloutBuffer:
    """Accumulates transitions, then yields shuffled minibatches.

    Advantage normalization happens per-buffer (the common PPO idiom) right
    before iteration.
    """

    def __init__(self, gamma: float = 0.99, lam: float = 0.95) -> None:
        self.gamma = gamma
        self.lam = lam
        self._transitions: List[Transition] = []

    def add(self, transition: Transition) -> None:
        self._transitions.append(transition)

    def __len__(self) -> int:
        return len(self._transitions)

    def clear(self) -> None:
        self._transitions.clear()

    def finalize(self, last_value: float = 0.0) -> Batch:
        """Compute GAE over the stored trajectory and flatten to arrays."""
        # Imported here: repro.rl pulls this module back in through its
        # compatibility shim, so a module-level import would be circular.
        from repro.rl.gae import compute_gae

        if not self._transitions:
            raise ValueError("cannot finalize an empty rollout buffer")
        rewards = np.array([t.reward for t in self._transitions])
        values = np.array([t.value for t in self._transitions])
        dones = np.array([t.done for t in self._transitions], dtype=np.float64)
        advantages, returns = compute_gae(
            rewards, values, dones, last_value=last_value, gamma=self.gamma, lam=self.lam
        )
        states = np.stack([t.state for t in self._transitions])
        masks = np.stack([t.action_mask for t in self._transitions])
        return Batch(
            states=states,
            actions=np.array([t.action for t in self._transitions], dtype=np.int64),
            old_log_probs=np.array([t.log_prob for t in self._transitions]),
            advantages=advantages,
            returns=returns,
            action_masks=masks,
        )

    @staticmethod
    def iter_minibatches(
        batch: Batch,
        minibatch_size: int,
        rng: np.random.Generator,
        normalize_advantages: bool = True,
    ) -> Iterator[Batch]:
        """Yield shuffled minibatches from a finalized batch."""
        n = len(batch.actions)
        advantages = batch.advantages
        if normalize_advantages and n > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        order = rng.permutation(n)
        for start in range(0, n, minibatch_size):
            idx = order[start : start + minibatch_size]
            yield Batch(
                states=batch.states[idx],
                actions=batch.actions[idx],
                old_log_probs=batch.old_log_probs[idx],
                advantages=advantages[idx],
                returns=batch.returns[idx],
                action_masks=batch.action_masks[idx],
            )


# ----------------------------------------------------------------------
# executed-plan records
# ----------------------------------------------------------------------


@dataclass
class PlanRecord:
    """One executed plan."""

    plan: PlanNode
    step: int
    latency_ms: float
    timed_out: bool


class ExecutionBuffer:
    """Executed-plan records grouped by query."""

    def __init__(self) -> None:
        self._records: Dict[str, Dict[str, PlanRecord]] = {}
        self._queries: Dict[str, Query] = {}
        self.total_added = 0  # monotone counter (drives AAM retrain cadence)

    # ------------------------------------------------------------------
    def add(
        self,
        query: Query,
        plan: PlanNode,
        step: int,
        latency_ms: float,
        timed_out: bool,
    ) -> bool:
        """Record an execution; returns False if the plan was already known."""
        query_sig = query.signature()
        per_query = self._records.setdefault(query_sig, {})
        self._queries.setdefault(query_sig, query)
        plan_sig = plan_signature(plan)
        if plan_sig in per_query:
            return False
        per_query[plan_sig] = PlanRecord(
            plan=plan, step=step, latency_ms=latency_ms, timed_out=timed_out
        )
        self.total_added += 1
        return True

    def records_for(self, query: Query) -> List[PlanRecord]:
        return list(self._records.get(query.signature(), {}).values())

    def num_queries(self) -> int:
        return len(self._records)

    def num_records(self) -> int:
        return sum(len(v) for v in self._records.values())

    def latency_of(self, query: Query, plan: PlanNode) -> Optional[PlanRecord]:
        return self._records.get(query.signature(), {}).get(plan_signature(plan))

    # ------------------------------------------------------------------
    def reference_set(self, query: Query, original_latency: float) -> ReferenceSet:
        """Reference plans (best / median better-than-original / original)."""
        better = [
            r.latency_ms
            for r in self.records_for(query)
            if not r.timed_out and r.latency_ms < original_latency
        ]
        return ReferenceSet.from_latencies(original_latency, better)

    def reference_records(self, query: Query, original_latency: float) -> List[PlanRecord]:
        """The actual records behind :meth:`reference_set` (best, median)."""
        better = sorted(
            (
                r
                for r in self.records_for(query)
                if not r.timed_out and r.latency_ms < original_latency
            ),
            key=lambda r: r.latency_ms,
        )
        if not better:
            return []
        return [better[0], better[len(better) // 2]]

    # ------------------------------------------------------------------
    def make_aam_samples(
        self,
        encoder: PlanEncoder,
        advantage: AdvantageFunction,
        max_steps: int,
        rng: np.random.Generator,
        max_pairs_per_query: int = 60,
    ) -> List[AAMSample]:
        """Build labelled plan pairs for AAM training.

        Pairs where *both* plans timed out are filtered (their relative
        order is unknowable — paper §V-B); both orientations of each pair
        are emitted so the position-aware head sees asymmetric supervision.
        """
        samples: List[AAMSample] = []
        for query_sig, per_query in self._records.items():
            query = self._queries[query_sig]
            records = list(per_query.values())
            if len(records) < 2:
                continue
            encodings = encoder.encode_many([(query, r.plan) for r in records])
            encoded = {
                plan_signature(r.plan): enc for r, enc in zip(records, encodings)
            }
            pairs: List[Tuple[PlanRecord, PlanRecord]] = []
            for i, left in enumerate(records):
                for right in records[i + 1 :]:
                    if left.timed_out and right.timed_out:
                        continue
                    pairs.append((left, right))
            if len(pairs) > max_pairs_per_query:
                picked = rng.choice(len(pairs), size=max_pairs_per_query, replace=False)
                pairs = [pairs[int(i)] for i in picked]
            for left, right in pairs:
                for a, b in ((left, right), (right, left)):
                    label = advantage.score(a.latency_ms, b.latency_ms)
                    samples.append(
                        AAMSample(
                            left=encoded[plan_signature(a.plan)],
                            left_step=a.step / max_steps,
                            right=encoded[plan_signature(b.plan)],
                            right_step=b.step / max_steps,
                            label=label,
                        )
                    )
        return samples
