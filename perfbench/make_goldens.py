"""Regenerate ``goldens.json``: sha256 digests of the records per experiment seed.

Run from the repository root, on the commit whose records are the reference::

    PYTHONPATH=src python3 perfbench/make_goldens.py

It also checks that the stock digest at ``DEFAULT_SEED`` equals the bytes
``repro-hpc-codex run --json`` writes, so the digests are the CLI's own
output.  Takes about half a minute on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.api import Session
from repro.codex.config import DEFAULT_SEED
from repro.extensions import install_extended_grid, uninstall_extended_grid

from workload import GOLDENS_PATH, records_digest, summary_digest, sweep_chunks

#: Experiment seeds the benchmark draws from.  Every seed any run can
#: evaluate has a golden, whatever ``--seed`` the benchmark is given.
POOL = tuple(range(1, 49))


def grid_digests(seeds) -> dict[str, str]:
    out = {}
    for seed in seeds:
        with Session(seed=seed) as session:
            out[str(seed)] = records_digest(session.full_results().to_records())
    return out


def cli_run_digest(root: Path, workdir: Path) -> str:
    """sha256 of the file ``run --json`` writes at the default seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "cli-run.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", "run", "--json", str(out)],
        cwd=root, env=env, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    try:
        return hashlib.sha256(out.read_bytes()).hexdigest()
    finally:
        out.unlink()


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    uninstall_extended_grid()
    stock = grid_digests(POOL)
    default = grid_digests([DEFAULT_SEED])[str(DEFAULT_SEED)]
    cli = cli_run_digest(root, root / ".perfbench_out")
    if cli != default:
        print(f"run --json digest {cli} != records digest {default}", file=sys.stderr)
        return 1
    sweep = {}
    for chunk in sweep_chunks(list(POOL)):
        with Session() as session:
            sweep[",".join(map(str, chunk))] = summary_digest(session.sweep_seeds(chunk))
    install_extended_grid()
    extended = grid_digests(POOL)
    goldens = {
        "format": "perfbench.goldens/v1",
        "digest": "sha256 of json.dumps(records, indent=2, sort_keys=True)",
        "pool": list(POOL),
        "default_seed": {"seed": DEFAULT_SEED, "stock": default},
        "stock": stock,
        "extended": extended,
        "sweep": sweep,
    }
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS_PATH} ({len(POOL)} seeds, {len(sweep)} sweep chunks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
