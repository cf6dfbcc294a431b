"""Benchmark of the lhzcode command line: Monte Carlo trials decoded per second.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory, so nothing needs building. Each run starts one fresh
single-threaded worker process (worker.py) that sends every cell of the
workload through `lhzcode.cli.main`, one `simulate` call per cell, pass
after pass for S seconds, and checks every row it prints (workloads.py).

--trace 0 reports the end-to-end metrics, measured without any hook:
  trials_per_s   trials in cells that passed validation over the wall time
                 of all cells attempted, over the whole run
  setup_s        fresh interpreter until lhzcode.cli is imported and its
                 parser built, median of two starts after each pass (at
                 least eight)
  peak_rss_mb    peak resident memory of the worker process
  cells_ok_frac  cells that passed over cells attempted

--trace 1 runs an untraced worker and then a traced one (hooks.py), S/2
seconds each, and reports the per-layer metrics plus trace.overhead_frac.

Lines before the last one record the environment, the seed, each cell's
outcome with the error text of failed cells, and the SHA-256 of the
workload's output, for information. The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import hooks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER_GRACE_S = 60  # beyond --seconds, before a hung worker is killed
UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB", "cells_ok_frac": "fraction"}
# Worker processes are single threaded and see only the checkout's sources.
ENV = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1")


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "commit": git_commit(), "seed": seed}


def worker(workload: str, seed: int, seconds: float, trace: bool, setup: bool, trials: int | None) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    argv += ["--trace"] * trace + ["--setup"] * setup + (["--trials", str(trials)] if trials else [])
    proc = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description="lhzcode CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, help="override every cell's trial count (smoke test)")
    a = p.parse_args()
    if not (SRC / "lhzcode" / "cli.py").is_file():
        print(f"error: no lhzcode sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(a.seed)
    try:
        if a.trace:
            plain = worker(a.workload, a.seed, a.seconds / 2, False, False, a.trials)
            traced = worker(a.workload, a.seed, a.seconds / 2, True, False, a.trials)
            runs = [plain, traced]
            values = dict(traced["layers"])
            values["trace.overhead_frac"] = (
                1 - traced["trials_per_s"] / plain["trials_per_s"] if plain["trials_per_s"] else 0.0)
            units = hooks.UNITS
        else:
            run = worker(a.workload, a.seed, a.seconds, False, True, a.trials)
            runs = [run]
            values = {
                "trials_per_s": run["trials_per_s"],
                "setup_s": run["setup_s"],
                "peak_rss_mb": run["peak_rss_mb"],
                "cells_ok_frac": 1 - run["failed"] / run["attempted"],
            }
            units = UNITS
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env["numpy"] = runs[-1]["numpy"]
    for r in runs:
        r.pop("layers", None)
        r["cells_failed_frac"] = r["failed"] / r["attempted"]
    print(json.dumps({"workload": a.workload, "env": env, "workers": runs}))
    print(json.dumps({
        "correct": all(r["incorrect"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
