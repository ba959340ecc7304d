"""Tests of the benchmark itself: every correctness check must be able to fire.

Run from the repository root (kept out of the default test collection)::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro.analysis.analyzer as analyzer_mod
import repro.codex.sampler as sampler_mod
from repro.analysis.detection import detect_models
from repro.corpus.mutations import apply_mutation
from repro.extensions import uninstall_extended_grid

import run
import workload
from make_goldens import cli_run_digest
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(autouse=True)
def _stock_grid():
    yield
    uninstall_extended_grid()


@pytest.fixture(scope="module")
def goldens() -> dict:
    return workload.load_goldens()


def _planted(goldens: dict, table: str, seed: int) -> dict:
    planted = json.loads(json.dumps(goldens))
    planted[table][str(seed)] = "0" * 64
    return planted


def _one_unit(name: str, goldens: dict, tmp_path: Path, **kw) -> dict:
    return workload.run_part(name, 0, 0.0, kw.pop("trace", False), 0, tmp_path,
                             goldens=goldens, **kw)


@pytest.mark.parametrize("table", ["extended", "stock"])
def test_planted_wrong_digest_counts_as_failed(goldens, tmp_path, table):
    seed = workload.Workload("grid_cold", 0, 0, goldens, tmp_path).units[0][0]
    report = _one_unit("grid_cold", _planted(goldens, table, seed), tmp_path)
    assert report["attempted"] >= 1
    assert report["failed"] == 1
    assert "differ" in report["failures"][0]


def test_unplanted_goldens_pass(goldens, tmp_path):
    report = _one_unit("grid_cold", goldens, tmp_path)
    assert (report["attempted"], report["failed"]) == (1, 0)
    assert report["cells"] == 236
    assert [cells for cells, _, _ in report["units"]] == [236]
    assert report["units"][0][2] > 0
    assert gc.isenabled()


def test_time_metrics_are_in_reference_seconds():
    # After the first unit the slices took twice the reference time (the
    # host ran at half speed), after the second the reference time.
    ref = run.REF_SLICE_S
    report = {"setup_s": 1.0, "setup_cpu_s": 0.6, "cells": 100, "eval_s": 3.0, "peak_rss_mb": 1.0,
              "gaps_ms": [40.0] * 50 + [20.0] * 50,
              "units": [[50, 2.0, 2 * ref], [50, 1.0, ref]]}
    metrics = run.end_to_end_metrics([report])
    assert metrics["cells_per_s"] == pytest.approx(50.0)
    assert metrics["cell_p50_ms"] == pytest.approx(20.0)
    assert run.speed(report) == pytest.approx(2 / 3)
    # 0.4 s of waits stay; 0.6 CPU seconds at 2/3 of reference speed are 0.4 ref_s.
    assert metrics["setup_s"] == pytest.approx(0.8)


def test_store_warm_pass_with_emptied_store_counts_as_failed(goldens, tmp_path, monkeypatch):
    monkeypatch.setattr(workload, "FILL_SEEDS", 1)
    work = workload.Workload("store_warm", 0, 0, goldens, tmp_path)
    setup = workload.Outcome()
    work.setup(setup)
    try:
        assert setup.failed == 0
        warm = workload.Outcome()
        work.timed(0.0, warm)
        assert warm.failed == 0
        work.store.clear()
        emptied = workload.Outcome()
        work.timed(0.0, emptied)
    finally:
        work.close()
    assert emptied.failed == 1
    assert "every verdict must come from the store" in emptied.failures[0]


def test_traced_run_restores_every_wrapped_function(goldens, tmp_path):
    probe = Tracer()
    workload.install_tracer(probe)
    probe.restore()
    targets = probe.targets()
    before = [getattr(owner, attr) for owner, attr in targets]
    report = _one_unit("grid_cold", goldens, tmp_path, trace=True)
    assert [getattr(owner, attr) for owner, attr in targets] == before
    assert sampler_mod.apply_mutation is apply_mutation
    assert analyzer_mod.detect_models is detect_models
    assert report["failed"] == 0
    spans = report["layers"]["spans"]
    for name in ("core.runner", "codex.complete", "codex.apply_mutation",
                 "analysis.analyze_batch", "analysis.static.python", "analysis.detect",
                 "analysis.hazards", "sandbox.batch", "core.classify"):
        assert spans[name]["calls"] > 0, name
    header = json.loads(Path(report["spans_file"]).read_text().splitlines()[0])
    assert header["seed"] == 0 and header["workload"] == "grid_cold"


def test_tracer_self_time_and_restore_after_error():
    owner = types.SimpleNamespace()
    owner.inner = lambda: None
    owner.outer = lambda fail: (owner.inner(), 1 / 0 if fail else None)
    originals = (owner.inner, owner.outer)
    tracer = Tracer()
    tracer.wrap(owner, "inner", "inner")
    tracer.wrap(owner, "outer", "outer")
    owner.outer(False)
    with pytest.raises(ZeroDivisionError):
        owner.outer(True)
    tracer.restore()
    assert (owner.inner, owner.outer) == originals
    assert tracer.restored()
    stats = tracer.aggregate("setup")
    assert stats["outer"]["calls"] == 2 and stats["inner"]["calls"] == 2
    assert stats["outer"]["self_ms"] == pytest.approx(
        stats["outer"]["busy_ms"] - stats["inner"]["busy_ms"]
    )


def test_bench_seed_changes_experiment_seeds_not_run_shape(goldens, tmp_path):
    for name in workload.WORKLOADS:
        a = workload.Workload(name, 0, 0, goldens, tmp_path).units
        b = workload.Workload(name, 1, 0, goldens, tmp_path).units
        assert a != b
        assert len(a) == len(b) and {len(u) for u in a} == {len(u) for u in b}


def test_default_seed_golden_is_the_cli_run_json_bytes(goldens, tmp_path):
    assert cli_run_digest(ROOT, tmp_path) == goldens["default_seed"]["stock"]


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", "grid_cold", "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert "seed=3" in proc.stdout


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "grid_cold", "--seed", "0", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
