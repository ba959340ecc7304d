"""Tests for the parallel, cache-aware evaluation pipeline.

Covers the four layers of the perf architecture:

* the per-cell seeding contract (:func:`repro.codex.engine.cell_seed_sequence`),
* the shared corpus memo (:func:`repro.corpus.store.default_corpus`),
* runner determinism and the indexed :class:`ResultSet` in
  :mod:`repro.core.runner`, and
* the process-wide verdict memo and the Session's fingerprint-keyed result
  cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import analyzer as analyzer_module
from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.api import ExperimentSpec
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.codex.engine import cell_seed_sequence
from repro.codex.sampler import SuggestionSampler
from repro.core.runner import EvaluationRunner, ResultSet
from repro.corpus.store import default_corpus
from repro.dispatch import ShardDriver
from repro.models.grid import experiment_grid
from repro.popularity.maturity import MaturityModel


# ---------------------------------------------------------------------------
# Per-cell seeding contract
# ---------------------------------------------------------------------------

class TestCellSeedSequence:
    def test_same_cell_same_stream(self):
        a = cell_seed_sequence(7, language="cpp", model="cpp.openmp", kernel="axpy", postfix="function")
        b = cell_seed_sequence(7, language="cpp", model="cpp.openmp", kernel="axpy", postfix="function")
        assert np.random.default_rng(a).integers(0, 1 << 30, 8).tolist() == \
            np.random.default_rng(b).integers(0, 1 << 30, 8).tolist()

    def test_coordinates_change_the_stream(self):
        base = dict(language="cpp", model="cpp.openmp", kernel="axpy", postfix="")
        reference = np.random.default_rng(cell_seed_sequence(7, **base)).integers(0, 1 << 30, 8)
        for variant in (
            dict(base, kernel="gemm"),
            dict(base, model="cpp.cuda"),
            dict(base, postfix="function"),
        ):
            drawn = np.random.default_rng(cell_seed_sequence(7, **variant)).integers(0, 1 << 30, 8)
            assert drawn.tolist() != reference.tolist(), variant
        reseeded = np.random.default_rng(cell_seed_sequence(8, **base)).integers(0, 1 << 30, 8)
        assert reseeded.tolist() != reference.tolist()

    def test_mismatched_language_rejected(self):
        with pytest.raises(ValueError):
            cell_seed_sequence(7, language="fortran", model="cpp.openmp", kernel="axpy", postfix="")


# ---------------------------------------------------------------------------
# Runner determinism
# ---------------------------------------------------------------------------

class TestBackendDeterminism:
    def test_single_cell_matches_full_grid_value(self, full_results):
        # Any cell evaluated in isolation reproduces its in-grid record.
        cells = experiment_grid()
        for index in (0, 57, 119, 203):
            cell = cells[index]
            runner = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED)
            alone = runner.run_cells([cell])
            assert alone.to_records() == [full_results.to_records()[index]]

    def test_evaluation_order_is_irrelevant(self):
        cells = experiment_grid(languages=("julia",))
        forward = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED).run_cells(cells)
        backward = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED).run_cells(cells[::-1])
        key = lambda r: (r["model"], r["kernel"], r["use_postfix"])
        assert sorted(forward.to_records(), key=key) == sorted(backward.to_records(), key=key)

    def test_progress_callback_fires_in_submission_order(self):
        cells = experiment_grid(languages=("julia",), kernels=("axpy", "gemv"))
        seen: list[str] = []
        runner = EvaluationRunner(
            config=CodexConfig(),
            seed=DEFAULT_SEED,
            progress=lambda result: seen.append(result.cell.cell_id),
        )
        runner.run_cells(cells)
        assert seen == [cell.cell_id for cell in cells]

    def test_unknown_backend_rejected(self):
        # The dispatch driver is the one place a backend is chosen.
        with pytest.raises(ValueError):
            ShardDriver(ExperimentSpec(), backend="thread")


# ---------------------------------------------------------------------------
# Indexed ResultSet
# ---------------------------------------------------------------------------

class TestResultSetIndex:
    def test_score_matches_linear_scan(self, full_results):
        for result in full_results:
            cell = result.cell
            assert full_results.score(cell.model, cell.kernel, use_postfix=cell.use_postfix) == result.score

    def test_score_missing_cell_raises(self, full_results):
        with pytest.raises(KeyError):
            full_results.score("cpp.openmp", "axpy", use_postfix=None)

    def test_filter_matches_linear_scan(self, full_results):
        for criteria in (
            dict(language="cpp"),
            dict(model="python.numpy"),
            dict(kernel="cg", use_postfix=False),
            dict(language="fortran", model="fortran.openacc", kernel="axpy", use_postfix=True),
            dict(),
        ):
            expected = [
                r for r in full_results
                if all(getattr(r.cell, name) == value for name, value in criteria.items())
            ]
            assert full_results.filter(**criteria).results == expected, criteria

    def test_preloaded_results_are_indexed(self, full_results):
        rebuilt = ResultSet(results=list(full_results), seed=full_results.seed)
        some = rebuilt.results[10].cell
        assert rebuilt.score(some.model, some.kernel, use_postfix=some.use_postfix) == \
            rebuilt.results[10].score


# ---------------------------------------------------------------------------
# Shared analyzer memo
# ---------------------------------------------------------------------------

class TestVerdictMemo:
    def test_identical_suggestion_executes_once(self, corpus):
        code = corpus.template("python", "python.numpy", "axpy").code
        calls: list[str] = []

        def counting_executor(code: str, kernel: str) -> tuple[bool, list[str]]:
            calls.append(kernel)
            return True, []

        analyzer = SuggestionAnalyzer(python_executor=counting_executor)
        for _ in range(3):
            verdict = analyzer.analyze(
                code, language="python", kernel="axpy", requested_model="python.numpy"
            )
            assert verdict.is_correct
        assert len(calls) == 1

    def test_default_analyzers_share_one_memo(self, corpus, monkeypatch):
        code = corpus.template("python", "python.numpy", "gemv").code
        calls: list[str] = []

        def counting_executor(code: str, kernel: str) -> tuple[bool, list[str]]:
            calls.append(kernel)
            return True, []

        monkeypatch.setattr(analyzer_module, "_default_python_executor", counting_executor)
        clear_verdict_memo()
        try:
            first, second = SuggestionAnalyzer(), SuggestionAnalyzer()
            assert first._cache is second._cache
            kwargs = dict(language="python", kernel="gemv", requested_model="python.numpy")
            first.analyze(code, **kwargs)
            second.analyze(code, **kwargs)
            assert len(calls) == 1
        finally:
            clear_verdict_memo()

    def test_mutating_a_returned_verdict_does_not_poison_the_memo(self, corpus):
        code = corpus.template("julia", "julia.threads", "axpy").code
        analyzer = SuggestionAnalyzer()
        kwargs = dict(language="julia", kernel="axpy", requested_model="julia.threads")
        first = analyzer.analyze(code, **kwargs)
        first.add_issue("caller-side annotation")
        first.math_correct = False
        second = analyzer.analyze(code, **kwargs)
        assert second.math_correct
        assert "caller-side annotation" not in second.issues

    def test_custom_backends_do_not_pollute_shared_memo(self):
        stubbed = SuggestionAnalyzer(python_executor=lambda code, kernel: (True, []))
        static = SuggestionAnalyzer(execute_python=False)
        default = SuggestionAnalyzer()
        assert stubbed._cache is not default._cache
        assert static._cache is not default._cache


# ---------------------------------------------------------------------------
# Corpus memo and the Session's fingerprint-keyed result cache
# ---------------------------------------------------------------------------

class TestCacheLayers:
    def test_default_corpus_is_memoized(self):
        assert default_corpus() is default_corpus()
        assert SuggestionSampler().corpus is SuggestionSampler().corpus

    def test_fingerprint_is_value_based(self):
        assert CodexConfig().fingerprint() == CodexConfig().fingerprint()
        assert CodexConfig().fingerprint() != CodexConfig(max_suggestions=5).fingerprint()
        scaled = CodexConfig(maturity=MaturityModel(model_weight=0.62 * 1.0))
        assert scaled.fingerprint() == CodexConfig().fingerprint()
        assert CodexConfig(maturity=MaturityModel(model_weight=0.31)).fingerprint() != \
            CodexConfig().fingerprint()

    def test_equal_configs_share_cached_results(self, session):
        first = session.language_results("julia", config=CodexConfig())
        second = session.language_results("julia", config=CodexConfig())
        default = session.language_results("julia")
        assert first is second is default

    def test_clear_result_cache_forces_reevaluation(self, session):
        first = session.language_results("julia")
        session.clear_cache()
        second = session.language_results("julia")
        assert first is not second
        assert first.to_records() == second.to_records()

    def test_ablation_points_reuse_default_run(self, session):
        default_cpp = session.language_results("cpp")
        # Maturity scale 1.0 and suggestion budget 10 fingerprint to the
        # default config, so neither ablation re-evaluates that point.
        scaled = session.language_results(
            "cpp", config=CodexConfig(maturity=MaturityModel(model_weight=0.62 * 1.0))
        )
        budget10 = session.language_results("cpp", config=CodexConfig(max_suggestions=10))
        assert scaled is default_cpp
        assert budget10 is default_cpp

    def test_result_cache_is_lru_bounded(self, session):
        limit = session._cache_max
        for i in range(limit + 5):
            session._cache_put((i, "x", "f"), ResultSet(seed=i))
        assert len(session._cache) == limit
        assert (0, "x", "f") not in session._cache
        assert (limit + 4, "x", "f") in session._cache

    def test_run_everything_evaluates_each_cell_once_per_fingerprint(self, session, monkeypatch):
        evaluated: list[tuple[str, str]] = []
        original = EvaluationRunner.run_cells

        def counting_run_cells(self, cells):
            cells = list(cells)
            evaluated.extend((self.config.fingerprint(), cell.cell_id) for cell in cells)
            return original(self, cells)

        monkeypatch.setattr(EvaluationRunner, "run_cells", counting_run_cells)
        session.run_everything(seed=DEFAULT_SEED)
        assert len(evaluated) == len(set(evaluated)), "a (fingerprint, cell) pair ran twice"
