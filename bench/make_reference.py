"""Record the reference rows that the benchmark validates every cell against.

Runs each distinct cell of every workload through `lhzcode.cli.main` at
several fixed seeds, one call per seed at the cell's own trial count, and
writes bench/reference.json:

    metadata   the columns that depend only on the cell, as printed
    failures   failures summed over the seeds whose call succeeded
    trials     trials summed over the same calls
    raised     {seed: error text} for the calls that exited nonzero

A cell that raised at every seed takes its bound columns from
`lhzcode bound`. Regenerate only when the program's outputs change on
purpose, and say why:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from lhzcode import cli  # noqa: E402
from run import git_commit  # noqa: E402

SEEDS = tuple(range(9001, 9009))


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def reference_entry(cell: workloads.Cell) -> dict:
    entry = {"metadata": None, "failures": 0, "trials": 0, "raised": {}}
    for seed in SEEDS:
        code, out, err = _call(cell.argv(seed))
        if code != 0:
            entry["raised"][str(seed)] = err.strip()
            continue
        row = dict(zip(workloads.COLUMNS, out.splitlines()[1].split(",")))
        entry["metadata"] = entry["metadata"] or {c: row[c] for c in workloads.METADATA}
        entry["failures"] += int(row["failures"])
        entry["trials"] += int(row["trials"])
    if entry["metadata"] is None:
        _, out, _ = _call(["bound", "--n", str(cell.n), "--eps", cell.eps])
        bound = dict(zip(out.splitlines()[0].split(","), out.splitlines()[1].split(",")))
        entry["metadata"] = {
            "decoder": cell.decoder,
            "graph": cell.graph,
            "n": str(cell.n),
            "epsilon": bound["epsilon"],
            "iterations": "5" if cell.decoder == "bp" else "0",
            "chernoff": bound["chernoff"],
            "union_bound": bound["union_bound"],
        }
    return entry


def main() -> int:
    cells = {}
    for name, workload in workloads.WORKLOADS.items():
        for cell in workload:
            if cell.key not in cells:
                cells[cell.key] = reference_entry(cell)
                print(name, cell.key, cells[cell.key]["failures"], cells[cell.key]["trials"],
                      len(cells[cell.key]["raised"]), file=sys.stderr, flush=True)
    doc = {"commit": git_commit(), "seeds": list(SEEDS), "cells": cells}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
