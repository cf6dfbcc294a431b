"""One workload process: every cell of a workload through `lhzcode.cli.main`.

run.py starts this in a fresh interpreter, so all cells share the
lru_cached graphs exactly as they do inside one real sweep. The worker runs
the cells in order, one `simulate` call each, pass after pass with the same
seed, until the time is up; every pass does the same work. A cell that exits
nonzero, raises or fails row validation is one failed cell, and the sweep
goes on. With --setup it times fresh interpreters importing lhzcode.cli
after each pass, so the set-up samples spread over the whole run as the
passes do. With --trace the hooks of hooks.py time each layer; without it no
hook is imported. The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

SETUP_PER_PASS = 2  # fresh starts timed after each pass
SETUP_STARTS = 8  # fewest set-up samples in a run


def setup_seconds() -> float:
    """Wall time from starting an interpreter until lhzcode.cli is ready.

    The child inherits this process's environment, so it imports the same
    sources.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lhzcode.cli as c; c.build_parser()"],
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def _call(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so a hook on main applies
    except Exception:  # a cell that raises past the CLI fails alone; the sweep goes on
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def run(workload: str, seed: int, seconds: float, trace: bool, setup: bool, trials: int | None) -> dict:
    import numpy
    import lhzcode.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "lhzcode":
        raise SystemExit(f"imported lhzcode from {cli.__file__}, not from {SRC}")
    cells = workloads.WORKLOADS[workload]
    if trials is not None:
        cells = tuple(dataclasses.replace(c, trials=trials) for c in cells)
    reference = workloads.load_reference()
    tracer = None
    if trace:
        import hooks

        tracer = hooks.Tracer()
        tracer.install()

    first: list[tuple] = []  # (code, stdout) of each cell in the first pass
    records: list[dict] = []
    rates, snapshots, setups = [], [], []
    attempted = failed = incorrect = 0
    all_trials, all_wall = 0, 0.0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        passed_trials, wall = 0, 0.0
        for i, cell in enumerate(cells):
            dt, code, out, err = _call(cli, cell.argv(seed))
            wall += dt
            problems = workloads.check_output(cell, seed, out, reference) if code == 0 else []
            if not rates:  # first pass
                first.append((code, out))
                records.append({"cell": cell.key, "trials": cell.trials, "exit": code,
                                "error": err.strip() or None, "problems": problems})
            elif (code, out) != first[i]:
                problems.append(f"pass {len(rates) + 1} differs from the first pass: exit {code}, {out!r}")
                records[i]["problems"].append(problems[-1])
            attempted += 1
            incorrect += bool(problems)
            if code == 0 and not problems:
                passed_trials += cell.trials
            else:
                failed += 1
        rates.append(passed_trials / wall)
        all_trials, all_wall = all_trials + passed_trials, all_wall + wall
        if tracer:
            snapshots.append(tracer.snapshot())
        if setup:
            setups += [setup_seconds() for _ in range(SETUP_PER_PASS)]
        elapsed = time.perf_counter() - start
        # Stop before a pass that would end past the time asked for.
        if elapsed + elapsed / len(rates) > seconds:
            break
    while setup and len(setups) < SETUP_STARTS:
        setups.append(setup_seconds())

    result = {
        "passes": len(rates),
        # Over the whole run rather than a median over passes: a shared
        # host's speed drifts in steps of many seconds, and a median over a
        # few passes jumps between those steps where the mean follows them.
        "trials_per_s": all_trials / all_wall,
        "pass_trials_per_s": rates,
        "setup_s": statistics.median(setups) if setups else None,
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "cells": records,
        "output_sha256": hashlib.sha256("".join(out for _, out in first).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer:
        result["layers"], result["notes"] = hooks.layer_metrics(snapshots, tracer.notes)
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup", action="store_true", help="time fresh starts between passes")
    p.add_argument("--trials", type=int, help="override every cell's trial count (smoke test)")
    a = p.parse_args()
    print(json.dumps(run(a.workload, a.seed, a.seconds, a.trace, a.setup, a.trials)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
