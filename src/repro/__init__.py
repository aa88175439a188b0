"""Reproduction of *FOSS: A Self-Learned Doctor for Query Optimizer* (ICDE 2024).

The stable public surface is :mod:`repro.api` — a SQL-text-in / plan-out
facade over the whole system:

* :class:`repro.api.FossSession` — lifecycle facade: ``open`` a workload,
  ``train`` the plan doctor, ``save``/``load`` it as one artifact, get the
  deployable optimizer;
* :class:`repro.api.OptimizerService` — request/response serving:
  ``submit(sql) -> PlanTicket`` / ``result(ticket)`` micro-batched through
  the engine's cohort machinery, plus synchronous ``optimize_sql`` /
  ``execute_sql``, with latency/batching/cache telemetry in ``stats()``;
* :func:`repro.api.create_optimizer` — build any method by name
  (``"foss"``, ``"postgres"``, ``"bao"``, ``"balsa"``, ``"loger"``,
  ``"hybridqo"``) from a session, entry-point-style registration for new
  ones;
* :class:`repro.api.OptimizeError` — the single typed failure for SQL the
  doctor cannot plan.

Quickstart::

    from repro.api import FossSession

    with FossSession.open("job", scale=0.05, seed=1) as session:
        session.train(iterations=3)
        plan = session.service().optimize_sql("SELECT COUNT(*) FROM ...")

Lower layers remain importable for composition: :mod:`repro.engine` (the
expert engine and the :class:`~repro.engine.EngineBackend` protocol with
local, sharded and remote implementations), :mod:`repro.workloads`,
:mod:`repro.core` (the paper's contribution, including ``FossTrainer`` and
``FossOptimizer``), :mod:`repro.baselines`, and :mod:`repro.experiments`.
"""

from repro.core import FossConfig
from repro.engine import Database, Dataset, EngineBackend, LocalBackend, ShardedBackend
from repro.workloads import build_workload_by_name

# The single version source: setup.py reads it from this file.
__version__ = "1.3.0"

__all__ = [
    "api",
    "FossConfig",
    "Database",
    "Dataset",
    "EngineBackend",
    "LocalBackend",
    "ShardedBackend",
    "build_workload_by_name",
    "__version__",
]
