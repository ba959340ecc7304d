"""Benchmark entry point: run one workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload grid_cold --seed 0 --seconds 30 --trace 0

The workload runs in ``PARTS`` fresh processes (``workload.py``), one after
another through the ``serial`` backend, each measuring ``seconds / PARTS``.
``setup_s`` is the median of the parts' set-up times; the other metrics
pool all parts.  Throughput and cell gaps are in reference seconds: each
timed unit is scaled by the host speed that the calibration slices after it
measured (see ``workload.calibration_slice``), and the CPU part of set-up by
the part's mean speed.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid_cold", "sweep_hot", "store_warm")
#: Fresh processes per run; each sets up once, so ``setup_s`` is a median of this many.
PARTS = 3
#: Every run must end within this many seconds, children included.
DEADLINE_S = 170.0

#: Time of one ``workload.calibration_slice`` at reference speed.  A
#: reference second (``ref_s``) is the time of 100 slices.
REF_SLICE_S = 0.006

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/ref_s",
    "cell_p50_ms": "ref_ms",
    "cell_p99_ms": "ref_ms",
    "peak_rss_mb": "MB",
}
LANGUAGES = ("cpp", "fortran", "python", "julia")
#: Spans whose busy time a traced run prints as a share of the evaluation.
SHARE_SPANS = ("analysis.analyze_batch", "sandbox.batch", "codex.complete", "store.get")


def run_part(args, part: int, deadline: float) -> dict:
    """Run one workload process and return the report it prints last."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds / PARTS), "--trace", str(args.trace),
        "--part", str(part),
        "--workdir", str(ROOT / ".perfbench_out"),
        "--spawned-at", repr(time.monotonic()),
    ]
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"perfbench: part {part} of {args.workload} exceeded the deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: part {part} of {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def in_reference_time(report: dict) -> tuple[list[float], float]:
    """One part's cell gaps (ms) and evaluation time (s) in reference time.

    Each unit is scaled by the host speed that the calibration slices right
    after it measured, so a slow second of the host slows both alike.
    """
    gaps: list[float] = []
    eval_s, at = 0.0, 0
    for cells, unit_s, slice_s in report["units"]:
        speed = REF_SLICE_S / slice_s
        gaps += [gap * speed for gap in report["gaps_ms"][at : at + cells]]
        eval_s += unit_s * speed
        at += cells
    return gaps, eval_s


def speed(report: dict) -> float:
    """Reference seconds per second over one part's timed units."""
    return in_reference_time(report)[1] / report["eval_s"]


def setup_time(report: dict) -> float:
    """One part's set-up seconds: its CPU time in reference seconds, plus its waits.

    The waits (spawn, disk) are the wall-clock time the process did not
    spend on the CPU.  The CPU part is scaled by the part's host speed.
    """
    cpu_s = report["setup_cpu_s"]
    return report["setup_s"] - cpu_s + cpu_s * speed(report)


def end_to_end_metrics(reports: list[dict]) -> dict[str, float]:
    scaled = [in_reference_time(report) for report in reports]
    gaps = [gap for part_gaps, _ in scaled for gap in part_gaps]
    return {
        "setup_s": statistics.median(setup_time(r) for r in reports),
        "cells_per_s": sum(r["cells"] for r in reports) / sum(s for _, s in scaled),
        "cell_p50_ms": statistics.median(gaps),
        "cell_p99_ms": statistics.quantiles(gaps, n=100)[98],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }


def per_layer_metrics(reports: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics summed over the parts' traced passes."""
    spans: dict[str, dict[str, float]] = {}
    for report in reports:
        layers = report["layers"]
        for name, entry in layers["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            for key in total:
                total[key] += entry[key]
        # Writes happen while the store is filled during set-up.
        put = layers["setup_spans"].get("store.put")
        if put is not None:
            total = spans.setdefault("store.put", {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            for key in total:
                total[key] += put[key]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def busy(name: str) -> float:
        return spans.get(name, {}).get("busy_ms", 0.0)

    def summed(key: str) -> float:
        return sum(r["layers"].get(key, r["layers"]["notes"].get(key, 0)) for r in reports)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    computed = sum(calls(f"analysis.static.{lang}") for lang in LANGUAGES)
    suggestions = summed("analysis.suggestions")
    traced_s, untraced_s = summed("trace.traced_s"), summed("trace.untraced_s")
    metrics: dict[str, tuple[float, str]] = {
        "import.s": (statistics.median(r["import_s"] for r in reports), "s"),
        "corpus.build_ms": (statistics.median(r["corpus_build_ms"] for r in reports), "ms"),
    }
    for name in ("codex.complete", "codex.apply_mutation", "analysis.analyze_batch"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.ms"] = (busy(name), "ms")
    metrics["analysis.verdicts_computed"] = (computed, "count")
    metrics["analysis.reuse_ratio"] = (ratio(suggestions - computed, suggestions), "ratio")
    metrics["analysis.detect.ms"] = (busy("analysis.detect"), "ms")
    for name in [f"analysis.static.{lang}" for lang in LANGUAGES] + ["analysis.hazards"]:
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.ms"] = (busy(name), "ms")
    metrics.update({
        "sandbox.batches": (calls("sandbox.batch"), "count"),
        "sandbox.executions": (summed("sandbox.executions"), "count"),
        "sandbox.ms": (busy("sandbox.batch"), "ms"),
        "sandbox.pass_ratio": (ratio(summed("sandbox.passed"), summed("sandbox.results")), "ratio"),
        "sandbox.lockstep.launches": (summed("sandbox.lockstep.launches"), "count"),
        "sandbox.lockstep.fallbacks": (summed("sandbox.lockstep.fallbacks"), "count"),
        "store.get.calls": (calls("store.get"), "count"),
        "store.get.ms": (busy("store.get"), "ms"),
        "store.hit_ratio": (ratio(summed("store.get_hits"), calls("store.get")), "ratio"),
        "store.put.calls": (calls("store.put"), "count"),
        "store.put.ms": (busy("store.put"), "ms"),
        "store.errors": (summed("store.errors"), "count"),
        "core.classify.ms": (busy("core.classify"), "ms"),
        "core.runner.self_ms": (spans.get("core.runner", {}).get("self_ms", 0.0), "ms"),
        "api.summarize_sweep.ms": (busy("api.summarize_sweep"), "ms"),
        "trace.cells": (summed("trace.cells"), "count"),
        "trace.overhead_ms": ((traced_s - untraced_s) * 1e3, "ms"),
        "trace.overhead_share": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
    })
    return metrics


def layer_shares(reports: list[dict]) -> str:
    """Busy time of the main layer spans, as shares of the traced evaluation time."""
    traced_ms = sum(r["layers"]["trace.traced_s"] for r in reports) * 1e3
    shares = (
        sum(r["layers"]["spans"].get(name, {}).get("busy_ms", 0.0) for r in reports) / traced_ms
        for name in SHARE_SPANS
    )
    return ", ".join(f"{name} {share:.3f}" for name, share in zip(SHARE_SPANS, shares))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    reports = [run_part(args, part, deadline) for part in range(PARTS)]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    env = reports[0]["env"]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} parts={PARTS} backend=serial nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} store_fs={env['store_fs']}"
    )
    print(f"  failed_share = {failed / attempted:.6g} share ({failed} of {attempted} seed-grids)")
    if args.trace:
        metrics = per_layer_metrics(reports)
        print(f"  busy share of traced evaluation: {layer_shares(reports)}")
        for report in reports:
            print(f"  spans written to {report['spans_file']}")
    else:
        metrics = {
            name: (value, END_TO_END[name]) for name, value in end_to_end_metrics(reports).items()
        }
        cells, eval_s = sum(r["cells"] for r in reports), sum(r["eval_s"] for r in reports)
        print(f"  samples: {cells} cell gaps, {PARTS} set-ups")
        print(f"  wall clock: {cells / eval_s:.6g} cells/s, set-up median "
              f"{statistics.median(r['setup_s'] for r in reports):.6g} s; host speed "
              + ", ".join(f"{speed(r):.4g}" for r in reports) + " ref_s/s by part")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
