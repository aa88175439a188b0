"""The public API layer: FossSession, OptimizerService, the registry.

Covers the serving contracts the facade promises:

* SQL text -> parse/bind -> plan -> (optional) execute, through the
  EngineBackend;
* queued micro-batched serving returns plans identical to one-at-a-time
  serving, for local and sharded backends;
* session save/load round-trips to a bitwise-identical optimizer;
* optimizers are constructed by name through the registry;
* failures surface as one typed OptimizeError (failed ticket on the
  queued path);
* the top-level package exports stay warning-free, and ``setup.py``
  ships ``repro.__version__``.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import (
    FossConfig,
    FossSession,
    OptimizeError,
    OptimizerService,
    PlanTicket,
    available_optimizers,
    create_optimizer,
    register_optimizer,
)
from repro.core.aam import AAMConfig
from repro.engine.backend import ShardedBackend
from repro.optimizer.plans import plan_signature


def tiny_config(**overrides) -> FossConfig:
    defaults = dict(
        max_steps=3,
        episodes_per_update=8,
        bootstrap_episodes=6,
        aam_retrain_threshold=40,
        random_sample_episodes=1,
        validation_budget=5,
        seed=33,
        aam=AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
            ff_hidden=32, epochs=1,
        ),
    )
    defaults.update(overrides)
    return FossConfig(**defaults)


@pytest.fixture(scope="module")
def api_session(job_workload) -> FossSession:
    """An untrained (deterministically initialized) session over JOB."""
    return FossSession.open(workload=job_workload, config=tiny_config())


@pytest.fixture()
def service(api_session) -> OptimizerService:
    return api_session.service()


def serving_sqls(workload, count: int = 5):
    return [wq.sql for wq in workload.train[:count]]


# ----------------------------------------------------------------------
# SQL-text-in / plan-out pipeline
# ----------------------------------------------------------------------
class TestOptimizeSql:
    def test_sql_text_to_plan(self, api_session, service):
        wq = api_session.workload.train[0]
        served = service.optimize_sql(wq.sql)
        direct = api_session.optimizer().optimize(wq.query)
        assert plan_signature(served.plan) == plan_signature(direct.plan)
        assert served.optimization_ms >= 0.0

    def test_execute_sql_runs_plan_through_backend(self, api_session, service):
        wq = api_session.workload.train[0]
        result = service.execute_sql(wq.sql)
        expected = api_session.backend.execute(
            wq.query, service.optimize_sql(wq.sql).plan
        )
        assert result.latency_ms == expected.latency_ms
        assert result.output_rows == expected.output_rows

    def test_optimizer_accepts_raw_sql_text(self, api_session):
        wq = api_session.workload.train[0]
        from_text = api_session.optimizer().optimize(wq.sql)
        from_query = api_session.optimizer().optimize(wq.query)
        assert plan_signature(from_text.plan) == plan_signature(from_query.plan)


# ----------------------------------------------------------------------
# micro-batched serving == one-at-a-time serving
# ----------------------------------------------------------------------
class TestBatchedServing:
    def test_batched_equals_single_local(self, api_session):
        sqls = serving_sqls(api_session.workload)
        sqls.append(sqls[0])  # a duplicate rides the same flush

        batched = api_session.service(max_batch_size=len(sqls))
        tickets = [batched.submit(sql) for sql in sqls]
        batched_results = [batched.result(t) for t in tickets]
        assert all(r.ok for r in batched_results)

        single = api_session.service()
        single_plans = [single.optimize_sql(sql) for sql in sqls]

        assert [plan_signature(r.plan.plan) for r in batched_results] == [
            plan_signature(p.plan) for p in single_plans
        ]
        # The duplicate resolved from the in-flight batch, not a second run,
        # and its per-ticket flag agrees with the aggregate hit counter.
        stats = batched.stats()
        assert stats["batches"] == 1
        assert stats["mean_batch_occupancy"] == len(sqls) - 1
        assert stats["cache_hits"] == 1
        assert [r.cached for r in batched_results] == [False] * (len(sqls) - 1) + [True]

    def test_submit_flushes_at_max_batch_size(self, api_session):
        sqls = serving_sqls(api_session.workload, 4)
        service = api_session.service(max_batch_size=2)
        tickets = [service.submit(sql) for sql in sqls]
        # Two full batches flushed on submit; nothing left pending.
        assert service.stats()["pending"] == 0
        assert service.stats()["batches"] == 2
        assert all(service.result(t).ok for t in tickets)

    def test_memo_eviction_during_flush_keeps_tickets(self, api_session):
        # A memo-hit plan snapshotted at flush start must survive being
        # evicted by the same flush's own misses.
        sqls = serving_sqls(api_session.workload, 4)
        service = api_session.service(max_batch_size=100, memo_capacity=2)
        service.optimize_sql(sqls[0])  # warm the memo
        tickets = [service.submit(sql) for sql in sqls]
        results = [service.result(t) for t in tickets]
        assert all(r.ok for r in results)
        assert results[0].cached

    def test_memo_capacity_zero_disables_caching(self, api_session):
        sql = api_session.workload.train[0].sql
        service = api_session.service(memo_capacity=0)
        first = service.optimize_sql(sql)
        second = service.optimize_sql(sql)
        assert plan_signature(first.plan) == plan_signature(second.plan)
        stats = service.stats()
        assert stats["cache_hits"] == 0
        assert stats["memo_size"] == 0

    def test_batched_equals_single_sharded(self, job_workload, api_session):
        sqls = serving_sqls(job_workload)
        local_plans = [
            plan_signature(api_session.service().optimize_sql(sql).plan) for sql in sqls
        ]
        sharded_session = FossSession.open(
            workload=job_workload, config=tiny_config(engine_workers=2)
        )
        try:
            assert isinstance(sharded_session.backend, ShardedBackend)
            batched = sharded_session.service(max_batch_size=len(sqls))
            tickets = [batched.submit(sql) for sql in sqls]
            sharded_batched = [
                plan_signature(batched.result(t).plan.plan) for t in tickets
            ]
            single = sharded_session.service()
            sharded_single = [
                plan_signature(single.optimize_sql(sql).plan) for sql in sqls
            ]
        finally:
            sharded_session.close()
        # Queued micro-batched == one-at-a-time, and both == the local backend.
        assert sharded_batched == sharded_single == local_plans


# ----------------------------------------------------------------------
# session persistence
# ----------------------------------------------------------------------
class TestSessionPersistence:
    def test_save_load_roundtrip_bitwise_identical(self, job_workload, tmp_path):
        session = FossSession.open(workload=job_workload, config=tiny_config())
        session.trainer().bootstrap()  # train the AAM away from its init
        queries = [wq.query for wq in job_workload.test[:4]]
        before = [
            plan_signature(p.plan) for p in session.optimizer().optimize_many(queries)
        ]

        session.save(str(tmp_path / "doctor"))
        loaded = FossSession.load(str(tmp_path / "doctor"))
        after = [
            plan_signature(p.plan) for p in loaded.optimizer().optimize_many(queries)
        ]
        assert after == before
        assert loaded.config == session.config
        assert loaded.workload.name == session.workload.name

    def test_save_requires_spec(self, job_workload, tmp_path):
        import dataclasses

        specless = dataclasses.replace(job_workload, spec=None)
        session = FossSession.open(workload=specless, config=tiny_config())
        with pytest.raises(ValueError, match="WorkloadSpec"):
            session.save(str(tmp_path / "nope"))

    def test_save_records_dataset_fingerprint(self, job_workload, tmp_path):
        import json

        from repro.engine.database import dataset_fingerprint

        session = FossSession.open(workload=job_workload, config=tiny_config())
        session.save(str(tmp_path / "doctor"))
        with open(tmp_path / "doctor" / "session.json") as handle:
            manifest = json.load(handle)
        # crc32-based and deterministic: recomputing over the same dataset
        # (and over a rebuild from the same spec) gives the same value.
        assert manifest["dataset_fingerprint"] == dataset_fingerprint(job_workload.dataset)
        assert manifest["dataset_fingerprint"].startswith("crc32:")
        rebuilt = job_workload.spec.build_dataset()
        assert dataset_fingerprint(rebuilt) == manifest["dataset_fingerprint"]

    def test_load_fails_loudly_on_fingerprint_mismatch(self, job_workload, tmp_path):
        import json

        session = FossSession.open(workload=job_workload, config=tiny_config())
        session.save(str(tmp_path / "doctor"))
        manifest_path = tmp_path / "doctor" / "session.json"
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        # Simulate datagen drift: the rebuilt dataset no longer matches the
        # fingerprint recorded at save time.
        manifest["dataset_fingerprint"] = "crc32:deadbeef:rows=1"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            FossSession.load(str(tmp_path / "doctor"))

    def test_load_rejects_injected_backend_with_wrong_dataset(self, job_workload, tmp_path):
        from repro.workloads.base import build_workload_by_name

        session = FossSession.open(workload=job_workload, config=tiny_config())
        session.save(str(tmp_path / "doctor"))
        # A backend over a different dataset than the manifest records: the
        # restored model must not silently plan against it.
        other = build_workload_by_name("job", scale=0.02, seed=9)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            FossSession.load(str(tmp_path / "doctor"), backend=other.database)

    def test_load_tolerates_manifest_without_fingerprint(self, job_workload, tmp_path):
        import json

        session = FossSession.open(workload=job_workload, config=tiny_config())
        session.save(str(tmp_path / "doctor"))
        manifest_path = tmp_path / "doctor" / "session.json"
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["dataset_fingerprint"]  # a pre-PR-4 manifest
        manifest_path.write_text(json.dumps(manifest))
        loaded = FossSession.load(str(tmp_path / "doctor"))
        assert loaded.workload.name == session.workload.name


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_methods_registered(self):
        names = available_optimizers()
        for expected in ("foss", "postgres", "postgresql", "bao", "balsa", "loger", "hybridqo"):
            assert expected in names

    def test_create_every_builtin(self, api_session):
        wq = api_session.workload.train[0]
        for name in ("foss", "postgres", "bao", "balsa", "loger", "hybridqo"):
            optimizer = create_optimizer(name, api_session)
            plan = optimizer.optimize(wq.query)
            assert plan.plan is not None, name

    def test_postgres_is_expert_passthrough(self, api_session):
        wq = api_session.workload.train[0]
        optimizer = create_optimizer("postgresql", api_session)
        expert = api_session.backend.plan(wq.query).plan
        assert plan_signature(optimizer.optimize(wq.query).plan) == plan_signature(expert)

    def test_custom_registration(self, api_session):
        calls = []

        @register_optimizer("test-custom")
        def _factory(session, flavor="plain"):
            calls.append(flavor)
            return create_optimizer("postgres", session)

        try:
            optimizer = create_optimizer("TEST-CUSTOM", api_session, flavor="spicy")
            assert calls == ["spicy"]
            assert hasattr(optimizer, "optimize")
        finally:
            from repro.api import registry

            registry._REGISTRY.pop("test-custom", None)

    def test_unknown_name_raises(self, api_session):
        with pytest.raises(ValueError, match="unknown optimizer"):
            create_optimizer("no-such-method", api_session)


# ----------------------------------------------------------------------
# typed failures
# ----------------------------------------------------------------------
class TestOptimizeError:
    BAD_SQLS = (
        "this is not sql at all (",
        "SELECT COUNT(*) FROM no_such_table AS x WHERE x.col = 1",
        "SELECT COUNT(*) FROM title AS t WHERE t.no_such_column = 1",
    )

    def test_optimizer_raises_single_typed_error(self, api_session):
        optimizer = api_session.optimizer()
        for sql in self.BAD_SQLS:
            with pytest.raises(OptimizeError):
                optimizer.optimize(sql)

    def test_optimize_sql_raises(self, service):
        with pytest.raises(OptimizeError):
            service.optimize_sql(self.BAD_SQLS[0])

    def test_submit_maps_to_failed_ticket(self, service):
        ticket = service.submit(self.BAD_SQLS[1])
        assert isinstance(ticket, PlanTicket)
        result = service.result(ticket)
        assert not result.ok
        assert result.status == "failed"
        assert "no_such_table" in result.error
        assert service.stats()["failures"] == 1

    def test_unknown_ticket_raises(self, service):
        with pytest.raises(ValueError, match="unknown ticket"):
            service.result(12345)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestServiceStats:
    def test_stats_track_cache_and_latency(self, api_session):
        service = api_session.service()
        sqls = serving_sqls(api_session.workload, 3)
        for sql in sqls:
            service.optimize_sql(sql)
        for sql in sqls:  # all repeats: memo hits
            service.optimize_sql(sql)
        stats = service.stats()
        assert stats["served"] == 6
        assert stats["cache_hits"] == 3
        assert stats["cache_misses"] == 3
        assert stats["cache_hit_rate"] == pytest.approx(0.5)
        assert stats["memo_size"] == 3
        assert stats["latency_p50_ms"] >= 0.0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"]

    def test_failures_counted_once(self, api_session):
        # A request that fails is a failure only — not also a cache miss —
        # so requests == served + failures holds on every path.
        service = api_session.service()
        with pytest.raises(OptimizeError):
            service.optimize_sql("SELECT COUNT(*) FROM no_such_table AS x WHERE x.c = 1")
        service.result(service.submit("garbage ("))
        stats = service.stats()
        assert stats["failures"] == 2
        assert stats["served"] == 0
        assert stats["cache_misses"] == 0
        assert stats["requests"] == stats["served"] + stats["failures"]


# ----------------------------------------------------------------------
# top-level package surface
# ----------------------------------------------------------------------
class TestDeprecations:
    def test_undeprecated_exports_stay_silent(self, recwarn):
        assert repro.FossConfig is FossConfig
        assert callable(repro.build_workload_by_name)
        assert not [w for w in recwarn.list if issubclass(w.category, DeprecationWarning)]


class TestVersion:
    def test_setup_py_ships_the_package_version(self, monkeypatch):
        import setuptools

        captured = {}
        monkeypatch.setattr(setuptools, "setup", lambda **kwargs: captured.update(kwargs))
        runpy.run_path(str(Path(__file__).resolve().parents[1] / "setup.py"))
        assert captured["version"] == repro.__version__
