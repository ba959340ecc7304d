"""Shared fixtures for the test suite.

Expensive objects (the default corpus, the analyzer with its verdict cache,
and a full evaluation grid run) are session-scoped so the several hundred
tests stay fast.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.analyzer import SuggestionAnalyzer
from repro.api import Session
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.codex.engine import SimulatedCodex
from repro.core.evaluator import PromptEvaluator
from repro.core.runner import EvaluationRunner, ResultSet
from repro.corpus.store import CorpusStore, default_corpus
from repro.dispatch import faults


@pytest.fixture()
def session():
    """A fresh :class:`repro.api.Session` (its result cache starts empty)."""
    with Session() as fresh:
        yield fresh


@pytest.fixture(scope="session")
def corpus() -> CorpusStore:
    """The default corpus (templates + mutated variants), shared process-wide."""
    return default_corpus()


@pytest.fixture(scope="session")
def analyzer() -> SuggestionAnalyzer:
    """A shared analyzer instance (its verdict cache is reused across tests)."""
    return SuggestionAnalyzer()


@pytest.fixture(scope="session")
def engine() -> SimulatedCodex:
    """A deterministic simulated Codex engine with the default seed."""
    return SimulatedCodex(seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def evaluator(engine: SimulatedCodex, analyzer: SuggestionAnalyzer) -> PromptEvaluator:
    return PromptEvaluator(engine=engine, analyzer=analyzer)


@pytest.fixture(scope="session")
def full_results(evaluator: PromptEvaluator) -> ResultSet:
    """The full Table 1 grid evaluated once for the whole session."""
    runner = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED, evaluator=evaluator)
    return runner.run_full_grid()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


class ShardGate:
    """Holds every shard evaluation at the ``worker.evaluate`` fault point
    until the test releases it, so a test decides what happens while an
    experiment is still running instead of racing the worker."""

    def __init__(self) -> None:
        #: Set once a worker is held at the fault point.
        self.reached = threading.Event()
        self.released = threading.Event()

    def fire(self, real_fire, point: str, context: str = ""):
        if point == "worker.evaluate":
            self.reached.set()
            if not self.released.wait(timeout=60):  # hang guard, not a wait-and-hope
                raise RuntimeError("shard gate was never released")
        return real_fire(point, context)


@pytest.fixture
def shard_gate(monkeypatch):
    """A :class:`ShardGate` on every evaluation in this process (service
    tests: hold a running experiment so queued/cancel states are decided by
    the test, not by how fast a shard evaluates)."""
    gate = ShardGate()
    real_fire = faults.fire
    monkeypatch.setattr(faults, "fire", lambda *args: gate.fire(real_fire, *args))
    yield gate
    gate.released.set()
