"""One workload process of the benchmark: set up, run timed units, check them.

``run.py`` starts this script several times per run, each time in a fresh
interpreter, and aggregates the JSON line it prints last.  Run it alone as::

    PYTHONPATH=src python3 perfbench/workload.py --workload grid_cold \\
        --seed 0 --seconds 3 --trace 0 --part 0

A *unit* is the smallest piece of work whose records are checked: one
seed's grid (``grid_cold``, ``store_warm``) or one sweep chunk
(``sweep_hot``).  A unit that raises or fails its check counts as failed;
it never aborts the run.  After each timed unit the process times a few
calibration slices, so ``run.py`` can express the unit in reference time.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import repro.analysis.analyzer as analyzer_mod  # noqa: E402
import repro.analysis.hazards as hazards_mod  # noqa: E402
import repro.api.sweep as sweep_mod  # noqa: E402
import repro.codex.sampler as sampler_mod  # noqa: E402
import repro.core.evaluator as evaluator_mod  # noqa: E402
import repro.sandbox as sandbox_pkg  # noqa: E402
from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo  # noqa: E402
from repro.analysis.store import VerdictStore  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.codex.config import DEFAULT_SEED  # noqa: E402
from repro.codex.engine import SimulatedCodex  # noqa: E402
from repro.core.runner import EvaluationRunner  # noqa: E402
from repro.corpus.store import default_corpus  # noqa: E402
from repro.extensions import (  # noqa: E402
    EXTENSION_KERNELS,
    EXTENSION_MODEL_UID,
    install_extended_grid,
)
from repro.sandbox.cuda_c.lockstep import lockstep_stats  # noqa: E402
from repro.sandbox.executor import sandbox_execution_count  # noqa: E402

from run import PARTS  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_S = time.monotonic() - _PROCESS_T0

WORKLOADS = ("grid_cold", "sweep_hot", "store_warm")
GOLDENS_PATH = Path(__file__).with_name("goldens.json")
#: Seeds per ``sweep_hot`` unit: small enough that the last unit of a part
#: overruns the time budget by well under a second.
SWEEP_CHUNK = 4
#: Seeds each ``store_warm`` part fills into its store and then re-reads.
FILL_SEEDS = 3
#: Calibration time after each timed unit, as a share of the unit's time.
CAL_SHARE = 0.1
_CAL_WORD = re.compile(r"k(\d+)-(\d+)")


def calibration_slice() -> int:
    """A fixed amount of pure-Python work that uses nothing from ``repro``.

    The host's speed drifts by tens of percent over seconds and minutes.
    Timing this slice next to the units measures that speed, so ``run.py``
    can express the units' time in reference seconds.  The mix of string
    formatting, regex, dict, sort, JSON and hashing resembles what the
    analysis layer does to suggestion text.  Never change it: the reference
    second is defined by it.
    """
    table: dict[str, int] = {}
    matched = 0
    for i in range(4000):
        key = f"k{i % 997}-{i}"
        table[key] = len(key) + i
        if _CAL_WORD.match(key):
            matched += 1
    text = json.dumps(sorted(table.items())[:600])
    return matched + len(hashlib.sha256(text.encode("utf-8")).hexdigest())


def calibrate(budget_s: float) -> float:
    """Run calibration slices for ``budget_s`` seconds (at least one); their mean time."""
    spent, slices = 0.0, 0
    # With the collector on, a slice would also pay for scanning the
    # program's heap, and its time would depend on the program.
    gc.disable()
    try:
        while True:
            start = time.perf_counter()
            calibration_slice()
            spent += time.perf_counter() - start
            slices += 1
            if spent >= budget_s:
                break
    finally:
        gc.enable()
    return spent / slices


def records_digest(records: list[dict]) -> str:
    """sha256 of the records as ``run --json`` writes them."""
    return hashlib.sha256(json.dumps(records, indent=2, sort_keys=True).encode("utf-8")).hexdigest()


def summary_digest(summary) -> str:
    """sha256 of a sweep summary payload as ``sweep --json`` serialises it."""
    text = json.dumps(summary.to_payload(), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stock_records(records: list[dict]) -> list[dict]:
    """The stock-grid subsequence of extended-grid records."""
    return [
        r for r in records
        if r["model"] != EXTENSION_MODEL_UID and r["kernel"] not in EXTENSION_KERNELS
    ]


def sweep_chunks(pool: list[int]) -> list[tuple[int, ...]]:
    return [tuple(pool[i : i + SWEEP_CHUNK]) for i in range(0, len(pool), SWEEP_CHUNK)]


def load_goldens(path: Path = GOLDENS_PATH) -> dict:
    return json.loads(path.read_text())


def filesystem_of(path: Path) -> str:
    """Type of the filesystem ``path`` lives on, from ``/proc/self/mounts``."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


@dataclass
class Outcome:
    """Checks and timings of one workload process."""

    cells: int = 0
    eval_s: float = 0.0
    #: Per timed unit: its cells, its evaluation time and the mean time of
    #: the calibration slices run right after it.
    units: list[tuple[int, float, float]] = field(default_factory=list)
    gaps_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str, seed_grids: int = 1) -> None:
        self.failed += seed_grids
        self.failures.append(message)


class Workload:
    """One workload in one process: its seeds, set-up and units."""

    def __init__(self, workload: str, bench_seed: int, part: int, goldens: dict,
                 workdir: Path) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.goldens = goldens
        self.workdir = workdir
        pool = list(goldens["pool"])
        # Different bench seeds start at different pool positions; parts of
        # one run start apart so they evaluate different experiment seeds.
        if workload == "sweep_hot":
            chunks = sweep_chunks(pool)
            start = bench_seed * 5 + part * (len(chunks) // PARTS)
            self.units = [chunks[(start + i) % len(chunks)] for i in range(len(chunks))]
        elif workload == "grid_cold":
            start = bench_seed * 11 + part * (len(pool) // PARTS)
            self.units = [(pool[(start + i) % len(pool)],) for i in range(len(pool))]
        else:
            start = bench_seed * 11 + part * FILL_SEEDS
            self.units = [(pool[(start + i) % len(pool)],) for i in range(FILL_SEEDS)]
        self.store: VerdictStore | None = None
        self.fill_digests: dict[int, str] = {}

    # -- set-up ---------------------------------------------------------------
    def setup(self, outcome: Outcome) -> None:
        """Bring the process to the workload's ready state."""
        if self.workload == "store_warm":
            self.store_dir = self.workdir / f"store-{os.getpid()}"
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store = VerdictStore(self.store_dir)
            for (seed,) in self.units:
                clear_verdict_memo()
                records = self._checked_grid(outcome, seed, self.goldens["stock"][str(seed)],
                                             store=self.store)
                if records is not None:
                    self.fill_digests[seed] = records_digest(records)
        self.reset(outcome)

    def reset(self, outcome: Outcome) -> None:
        """Re-establish the ready state before a timed pass."""
        if self.workload == "sweep_hot":
            clear_verdict_memo()
            self._checked_grid(outcome, DEFAULT_SEED, self.goldens["default_seed"]["stock"])

    @staticmethod
    def _checked_grid(outcome: Outcome, seed: int, expect: str,
                      store: VerdictStore | None = None) -> list[dict] | None:
        """Evaluate one stock seed-grid untimed; its records if they match ``expect``."""
        outcome.attempted += 1
        try:
            with Session(seed=seed, verdict_store=store) as session:
                records = session.full_results().to_records()
        except Exception:  # a failing seed-grid is counted, not fatal
            outcome.fail(f"set-up seed={seed}: raised\n{traceback.format_exc()}")
            return None
        if records_digest(records) != expect:
            outcome.fail(f"set-up seed={seed}: records digest differs from the golden")
            return None
        return records

    # -- timed units ----------------------------------------------------------
    def run_unit(self, seeds: tuple[int, ...], outcome: Outcome) -> None:
        """Evaluate one unit, time it, and check its records."""
        ticks: list[float] = []
        results: list = []

        def progress(result) -> None:
            ticks.append(time.process_time())
            results.append(result)

        outcome.attempted += len(seeds)
        if self.workload != "sweep_hot":
            clear_verdict_memo()
        executions = sandbox_execution_count()
        misses = self.store.misses if self.store is not None else 0
        summary = None
        # Cell gaps use process CPU time: on a shared VM, time the host
        # steals from this process otherwise lands in the p99 tail.
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            if self.workload == "sweep_hot":
                with Session(progress=progress) as session:
                    summary = session.sweep_seeds(seeds)
            else:
                with Session(seed=seeds[0], progress=progress, verdict_store=self.store) as session:
                    session.full_results()
        except Exception:  # a failing seed-grid is counted, not fatal
            outcome.fail(f"{self.workload} seeds={seeds}: raised\n{traceback.format_exc()}",
                         len(seeds))
            return
        finally:
            end = time.perf_counter()
        outcome.eval_s += end - start
        outcome.cells += len(ticks)
        outcome.gaps_ms.extend(
            (b - a) * 1e3 for a, b in zip([cpu_start] + ticks[:-1], ticks, strict=True)
        )
        records = [result.to_record() for result in results]
        self.check(seeds, records, summary, sandbox_execution_count() - executions,
                   (self.store.misses - misses) if self.store is not None else 0, outcome)

    def check(self, seeds, records, summary, executions: int, misses: int,
              outcome: Outcome) -> None:
        """Compare one unit's records with the goldens (and the fill)."""
        label = f"{self.workload} seeds={seeds}"
        stock = self.goldens["stock"]
        if self.workload == "grid_cold":
            seed = seeds[0]
            if records_digest(records) != self.goldens["extended"][str(seed)]:
                outcome.fail(f"{label}: extended records differ from the golden")
            elif records_digest(stock_records(records)) != stock[str(seed)]:
                outcome.fail(f"{label}: stock subsequence differs from the stock golden")
        elif self.workload == "sweep_hot":
            per_seed = len(records) // len(seeds)
            bad = [
                seed for i, seed in enumerate(seeds)
                if records_digest(records[i * per_seed : (i + 1) * per_seed]) != stock[str(seed)]
            ]
            if bad or len(records) != per_seed * len(seeds):
                outcome.fail(f"{label}: per-seed records differ for seeds {bad}", max(1, len(bad)))
            elif summary_digest(summary) != self.goldens["sweep"][",".join(map(str, seeds))]:
                outcome.fail(f"{label}: sweep summary differs from the golden", len(seeds))
        else:
            seed = seeds[0]
            if executions or misses:
                outcome.fail(f"{label}: {executions} sandbox executions and {misses} store "
                             "misses; every verdict must come from the store")
            elif records_digest(records) != self.fill_digests.get(seed):
                outcome.fail(f"{label}: records differ from the set-up fill")

    def timed(self, budget_s: float, outcome: Outcome, units=None) -> list[tuple[int, ...]]:
        """Run units for ``budget_s`` seconds (or exactly ``units``); return those run."""
        done: list[tuple[int, ...]] = []
        start = time.perf_counter()
        source = units if units is not None else itertools.cycle(self.units)
        for seeds in source:
            cells, eval_s, unit_start = outcome.cells, outcome.eval_s, time.perf_counter()
            self.run_unit(seeds, outcome)
            slice_s = calibrate(CAL_SHARE * (time.perf_counter() - unit_start))
            outcome.units.append((outcome.cells - cells, outcome.eval_s - eval_s, slice_s))
            done.append(seeds)
            if units is None and time.perf_counter() - start >= budget_s:
                break
        return done

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _note_suggestions(tracer: Tracer, args, result) -> None:
    tracer.note("analysis.suggestions", len(args[1]))


def _note_sandbox(tracer: Tracer, args, result) -> None:
    tracer.note("sandbox.results", len(result))
    tracer.note("sandbox.passed", sum(1 for r in result if r.passed))


def _note_store_get(tracer: Tracer, args, result) -> None:
    tracer.note("store.get_hits", result is not None)


def install_tracer(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    tracer.context(EvaluationRunner, "run_cells", "seed", lambda runner, *a, **k: runner.seed)
    tracer.wrap(EvaluationRunner, "run_cells", "core.runner")
    tracer.context(evaluator_mod.PromptEvaluator, "evaluate_cell", "cell",
                   lambda evaluator, cell, *a, **k: cell.cell_id)
    tracer.wrap(SimulatedCodex, "complete", "codex.complete")
    tracer.wrap(sampler_mod, "apply_mutation", "codex.apply_mutation")
    tracer.wrap(SuggestionAnalyzer, "analyze_batch", "analysis.analyze_batch",
                note=_note_suggestions)
    tracer.wrap(SuggestionAnalyzer, "_static_verdict",
                lambda analyzer, key, lang, *a, **k: f"analysis.static.{lang.name}")
    tracer.wrap(analyzer_mod, "detect_models", "analysis.detect")
    tracer.wrap(hazards_mod, "static_findings_for", "analysis.hazards")
    tracer.wrap(sandbox_pkg, "evaluate_python_suggestions", "sandbox.batch", note=_note_sandbox)
    tracer.wrap(VerdictStore, "get", "store.get", note=_note_store_get)
    tracer.wrap(VerdictStore, "put", "store.put")
    tracer.wrap(evaluator_mod, "classify_verdicts", "core.classify")
    tracer.wrap(sweep_mod, "summarize_sweep", "api.summarize_sweep")


def _lockstep_counts() -> tuple[int, int]:
    stats = lockstep_stats()
    launches = sum(v for k, v in stats.items()
                   if k.startswith("launches_") and k != "launches_static_elided")
    return launches, stats.get("launches_scalar_fallback", 0)


def environment(workdir: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "store_fs": filesystem_of(workdir),
    }


def run_part(workload: str, bench_seed: int, seconds: float, trace: bool, part: int,
             workdir: Path, goldens: dict | None = None,
             spawned_at: float | None = None) -> dict:
    """Run one workload part in this process and return its report."""
    goldens = load_goldens() if goldens is None else goldens
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracer(tracer)
    outcome = Outcome()
    work = Workload(workload, bench_seed, part, goldens, workdir)
    report: dict = {"workload": workload, "seed": bench_seed, "part": part, "trace": int(trace),
                    "env": environment(workdir), "import_s": IMPORT_S}
    try:
        if workload == "grid_cold":
            install_extended_grid()
        corpus_start = time.perf_counter()
        default_corpus()
        report["corpus_build_ms"] = (time.perf_counter() - corpus_start) * 1e3
        work.setup(outcome)
        report["setup_s"] = time.monotonic() - (_PROCESS_T0 if spawned_at is None else spawned_at)
        report["setup_cpu_s"] = time.process_time()
        if tracer is None:
            work.timed(seconds, outcome)
        else:
            report["layers"] = traced_pass(tracer, work, seconds, outcome)
            report["layers"]["store.errors"] = (
                work.store.stats()["backend"]["errors"] if work.store is not None else 0
            )
            spans = workdir / f"spans-{workload}-part{part}.ndjson"
            header = {k: report[k] for k in ("workload", "seed", "part")} | report["env"]
            tracer.write(spans, header)
            report["spans_file"] = str(spans)
    finally:
        if tracer is not None:
            tracer.restore()
        work.close()
    report.update(
        cells=outcome.cells, eval_s=outcome.eval_s, gaps_ms=outcome.gaps_ms,
        units=outcome.units,
        attempted=outcome.attempted, failed=outcome.failed, failures=outcome.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return report


def traced_pass(tracer: Tracer, work: Workload, seconds: float, outcome: Outcome) -> dict:
    """Traced units for half the budget, then the same units untraced."""
    executions = sandbox_execution_count()
    launches, fallbacks = _lockstep_counts()
    cells, eval_s = outcome.cells, outcome.eval_s
    tracer.phase = "timed"
    units = work.timed(seconds / 2, outcome)
    layers = {
        "sandbox.executions": sandbox_execution_count() - executions,
        "sandbox.lockstep.launches": _lockstep_counts()[0] - launches,
        "sandbox.lockstep.fallbacks": _lockstep_counts()[1] - fallbacks,
        "trace.cells": outcome.cells - cells,
        "trace.traced_s": outcome.eval_s - eval_s,
        "spans": tracer.aggregate("timed"),
        "setup_spans": tracer.aggregate("setup"),
        "notes": dict(tracer.notes["timed"]),
    }
    tracer.restore()
    if not tracer.restored():
        raise RuntimeError("tracer left a wrapped function in place")
    work.reset(outcome)
    eval_s = outcome.eval_s
    work.timed(0.0, outcome, units=units)
    layers["trace.untraced_s"] = outcome.eval_s - eval_s
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--workdir", default=".perfbench_out")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() reading taken by the parent just before spawning")
    args = parser.parse_args(argv)
    report = run_part(args.workload, args.seed, args.seconds, bool(args.trace), args.part,
                      Path(args.workdir), spawned_at=args.spawned_at)
    for failure in report["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
