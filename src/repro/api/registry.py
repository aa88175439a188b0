"""Named optimizer construction: one registry for every method.

``create_optimizer(name, session)`` builds any optimizer the evaluation
knows about — the FOSS doctor and all comparator baselines — from a
:class:`~repro.api.session.FossSession`, so harnesses, examples and
benchmarks never hand-wire constructors:

    session = FossSession.open("job", scale=0.05)
    bao = create_optimizer("bao", session)
    bao.train(session.workload.train, iterations=3)

Registration is entry-point style: third-party methods plug in with either
a factory callable or a lazy ``"package.module:factory"`` string that is
imported on first use::

    @register_optimizer("mymethod")
    def _build(session, **kwargs):
        return MyOptimizer(session.backend, **kwargs)

    register_optimizer("othermethod", "otherpkg.optimizers:build")

Every factory takes ``(session, **kwargs)`` and returns an object with
``optimize(query) -> OptimizedPlan``; trainable methods additionally expose
``train(queries, iterations=...)``.  An optimizer that also offers a batch
``optimize_many`` must accept ``optimize_many(queries, ctxs=...)``: the
serving layer passes aligned request contexts whenever any request in the
batch carries one, and expects a ``DeadlineExceededError`` in the slot of
each expired request (FOSS's ``optimize_many`` is the reference).
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Union

OptimizerFactory = Callable[..., object]

_REGISTRY: Dict[str, Union[str, OptimizerFactory]] = {}


def register_optimizer(name: str, factory: Union[str, OptimizerFactory, None] = None):
    """Register a factory under ``name`` (also usable as a decorator).

    ``factory`` may be a callable ``(session, **kwargs) -> optimizer`` or a
    lazy ``"module.path:attr"`` entry-point string resolved on first
    :func:`create_optimizer` call.
    """
    key = name.lower()

    def _register(fn):
        _REGISTRY[key] = fn
        return fn

    if factory is None:
        return _register
    return _register(factory)


def available_optimizers() -> List[str]:
    """Registered method names, sorted."""
    return sorted(_REGISTRY)


def create_optimizer(name: str, session, **kwargs):
    """Build the named optimizer from a session's workload and backend."""
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; registered: {', '.join(available_optimizers())}"
        ) from None
    if isinstance(factory, str):  # lazy entry point: "module.path:attr"
        module_name, _, attr = factory.partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        _REGISTRY[key] = factory
    return factory(session, **kwargs)


# ----------------------------------------------------------------------
# built-in methods (the paper's evaluation, §VI-A)
# ----------------------------------------------------------------------

@register_optimizer("foss")
def _make_foss(session, **kwargs):
    """The trained (or training) plan doctor owned by the session."""
    return session.optimizer()


def _make_postgres(session, **kwargs):
    from repro.baselines.postgres import PostgresOptimizer

    return PostgresOptimizer(session.backend)


register_optimizer("postgres", _make_postgres)
register_optimizer("postgresql", _make_postgres)  # paper-table spelling


@register_optimizer("bao")
def _make_bao(session, seed: int = 11, **kwargs):
    from repro.baselines.bao import BaoOptimizer

    return BaoOptimizer(session.backend, seed=seed, **kwargs)


@register_optimizer("hybridqo")
def _make_hybridqo(session, seed: int = 13, **kwargs):
    from repro.baselines.hybridqo import HybridQOOptimizer

    return HybridQOOptimizer(session.backend, seed=seed, **kwargs)


@register_optimizer("balsa")
def _make_balsa(session, seed: int = 17, **kwargs):
    from repro.baselines.balsa import BalsaOptimizer

    return BalsaOptimizer(session.backend, seed=seed, **kwargs)


@register_optimizer("loger")
def _make_loger(session, seed: int = 19, **kwargs):
    from repro.baselines.loger import LogerOptimizer

    return LogerOptimizer(session.backend, seed=seed, **kwargs)
