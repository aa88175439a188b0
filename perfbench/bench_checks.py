"""Output checks: complete plans, virtual execution times for GMRL, and the plan digest ledger."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.optimizer.plans import JOIN_METHODS, JoinNode, ScanNode, plan_signature


def plan_problem(query, plan) -> Optional[str]:
    """Why ``plan`` is not a complete join tree over exactly the query's aliases."""
    leaves: List[ScanNode] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, JoinNode):
            if node.method not in JOIN_METHODS:
                return f"unknown join method {node.method!r}"
            stack.extend((node.left, node.right))
        elif isinstance(node, ScanNode):
            leaves.append(node)
        else:
            return f"unexpected plan node {type(node).__name__}"
    aliases = sorted(leaf.alias for leaf in leaves)
    if aliases != sorted(query.tables):
        return f"plan covers {aliases}, query has {sorted(query.tables)}"
    for leaf in leaves:
        if query.tables[leaf.alias] != leaf.table:
            return f"alias {leaf.alias} scans {leaf.table}, query binds {query.tables[leaf.alias]}"
    return None


def relevant_latencies(
    backend, queries: Sequence, plans: Sequence
) -> Tuple[List[float], List[float]]:
    """Virtual execution times of ``plans`` and of the expert's plans."""
    learned = [backend.execute(query, plan).latency_ms for query, plan in zip(queries, plans)]
    expert = [
        backend.execute(query, backend.plan(query).plan).latency_ms for query in queries
    ]
    return learned, expert


def digest(plans: Sequence) -> str:
    """sha256 over the plan signatures, in order."""
    h = hashlib.sha256()
    for plan in plans:
        h.update(plan_signature(plan).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class DigestLedger:
    """Plan digests recorded by earlier runs in this checkout.

    Runs that must serve identical plans share a key (measured and traced
    ``serve_cold`` runs of one seed; ``train`` runs of one length).
    The first run records the digest; later runs must match it.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def check(self, key: str, value: str) -> Optional[str]:
        entries: Dict[str, str] = {}
        if os.path.exists(self.path):
            with open(self.path) as handle:
                entries = json.load(handle)
        recorded = entries.get(key)
        if recorded is not None:
            return None if recorded == value else f"{key}: digest {value} != recorded {recorded}"
        entries[key] = value
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(entries, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        return None
