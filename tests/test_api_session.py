"""Tests for the Session façade."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.spec import ExperimentSpec
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.core.runner import ResultSet


class TestSessionCaching:
    def test_language_results_cached_per_fingerprint(self):
        with Session() as session:
            first = session.language_results("julia")
            second = session.language_results("julia", config=CodexConfig())
            assert first is second

    def test_distinct_sessions_do_not_share_results(self):
        with Session() as a, Session() as b:
            ra, rb = a.language_results("julia"), b.language_results("julia")
            assert ra is not rb
            assert ra.to_records() == rb.to_records()

    def test_seed_and_config_overrides_key_the_cache(self):
        with Session() as session:
            base = session.language_results("julia")
            reseeded = session.language_results("julia", seed=DEFAULT_SEED + 1)
            budget = session.language_results("julia", config=CodexConfig(max_suggestions=3))
            assert base is not reseeded
            assert base is not budget
            assert base is session.language_results("julia")

    def test_clear_cache_forces_reevaluation(self):
        with Session() as session:
            first = session.language_results("julia")
            session.clear_cache()
            second = session.language_results("julia")
            assert first is not second
            assert first.to_records() == second.to_records()

    def test_cache_is_lru_bounded(self):
        with Session(cache_size=4) as session:
            for i in range(6):
                session._cache_put((i, "x", "f"), ResultSet(seed=i))
            assert len(session._cache) == 4
            assert (0, "x", "f") not in session._cache
            assert (5, "x", "f") in session._cache


class TestSessionLifecycle:
    def test_close_shuts_down_runners(self):
        session = Session()
        session.language_results("julia")
        assert session._runners
        session.close()
        assert not session._runners
        with pytest.raises(RuntimeError):
            session.language_results("cpp")
        session.close()  # idempotent

    def test_runner_pool_reused_across_calls(self):
        with Session() as session:
            session.language_results("julia")
            runner = next(iter(session._runners.values()))
            session.language_results("fortran")
            assert next(iter(session._runners.values())) is runner

    def test_unknown_backend_rejected(self):
        # Backends are chosen only at dispatch, which refuses unknown ones.
        with Session() as session:
            for backend in ("gpu", "thread"):
                with pytest.raises(ValueError):
                    session.dispatch(backend=backend)

    def test_progress_callback_fires_per_cell(self):
        seen: list[str] = []
        with Session(progress=lambda result: seen.append(result.cell.cell_id)) as session:
            results = session.language_results("julia")
        assert seen == [result.cell.cell_id for result in results]


class TestSessionArtefacts:
    def test_figure_and_overall(self):
        with Session() as session:
            fig = session.figure(3)
            overall = session.figure(6)
        assert fig.experiment_id == "figure3"
        assert fig.comparison is not None
        assert overall.experiment_id == "figure6"
        assert overall.summary_line().endswith("done")

    def test_table_and_figure_unknown_numbers(self):
        with Session() as session:
            with pytest.raises(KeyError):
                session.table(7)
            with pytest.raises(KeyError):
                session.figure(9)

    def test_ablation_dispatch(self):
        with Session() as session:
            report = session.ablation("suggestions", counts=(1, 10))
            assert set(report.data["means"]) == {1, 10}
            with pytest.raises(KeyError):
                session.ablation("nonexistent")

    def test_ablation_points_reuse_cached_default_run(self):
        with Session() as session:
            default_cpp = session.language_results("cpp")
            session.ablation("suggestions", counts=(10,))
            budget10 = session.language_results("cpp", config=CodexConfig(max_suggestions=10))
            assert budget10 is default_cpp


class TestSpecRunsAndSweeps:
    def test_full_spec_run_equals_full_results(self):
        with Session() as session:
            spec_run = session.run(ExperimentSpec())
            assert spec_run.to_records() == session.full_results().to_records()

    def test_restricted_spec_runs_directly(self):
        spec = ExperimentSpec(languages=("julia",), kernels=("axpy", "gemv"))
        with Session() as session:
            results = session.run(spec)
        assert len(results) == len(spec.cells())
        assert all(result.cell.kernel in ("axpy", "gemv") for result in results)

    def test_sweep_returns_per_seed_sets(self):
        with Session() as session:
            swept = session.sweep([7, 8], languages=("julia",))
            assert list(swept) == [7, 8]
            assert swept[7].seed == 7
            assert swept[7].to_records() != swept[8].to_records()
            # Each seed's sweep entry matches an independent run at that seed.
            alone = session.language_results("julia", seed=7)
            assert swept[7].to_records() == alone.to_records()

