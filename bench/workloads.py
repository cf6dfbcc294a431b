"""The benchmark's workloads, and the check every row they print must pass.

A cell is one (decoder, graph, schedule, n, epsilon) run as a single
`lhzcode simulate` call. Trial counts are fixed per workload, so every pass
over a workload does the same work and its work counts repeat exactly. They
are sized so that one pass takes about 6-12 s on a 2-core machine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HEADER = "decoder,graph,n,epsilon,iterations,trials,failures,p_fail,stderr,chernoff,union_bound,seed"
COLUMNS = tuple(HEADER.split(","))
# Columns that depend only on the cell, compared byte for byte with the reference.
METADATA = ("decoder", "graph", "n", "epsilon", "iterations", "chernoff", "union_bound")
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Width, in standard deviations, of the band the failure count must fall in.
# Wide on purpose: it catches a broken decoder, not a statistical fluke.
BAND_Z = 5.0


@dataclass(frozen=True)
class Cell:
    decoder: str
    n: int
    eps: str
    trials: int
    graph: str = "triangle"
    schedule: str = "belief"
    shared_noise: bool = False

    @property
    def key(self) -> str:
        """Reference key; the noise pairing changes neither metadata nor rate."""
        return f"{self.decoder}/{self.graph}/{self.schedule}/n={self.n}/eps={self.eps}"

    def argv(self, seed: int) -> list[str]:
        argv = ["simulate", "--decoder", self.decoder, "--n", str(self.n), "--eps", self.eps,
                "--trials", str(self.trials), "--seed", str(seed)]
        if self.decoder == "bp":
            argv += ["--graph", self.graph, "--schedule", self.schedule]
        if self.shared_noise:
            argv.append("--shared-noise")
        return argv


def _grid(decoders, ns, epss, trials, **kw) -> tuple[Cell, ...]:
    """Cells in the row order of one `simulate` sweep: decoder, n, epsilon."""
    return tuple(Cell(d, n, e, trials, **kw) for d in decoders for n in ns for e in epss)


# Each workload joins two cell groups of the same kind, so that a run can be
# long enough to average over the drift of a shared host's speed.
WORKLOADS: dict[str, tuple[Cell, ...]] = {
    # The majority grid, where noise drawing is ~96% of the time and no
    # message passing runs, then the only cells that run the exhaustive
    # search and that draw the same noise once per decoder.
    "majority-mle": _grid(("majority",), (10, 20, 40), ("0.05", "0.1", "0.15", "0.2"), 1500)
    + _grid(("majority", "bp", "mle"), (12, 14, 16), ("0.1", "0.2"), 200, shared_noise=True),
    # Message passing, ~90% of the time. Triangle graph first: its extrinsic
    # cells keep the saturation defect in view: at n=20, eps=0.2 a 256-trial
    # chunk raises InconsistentEvidenceError on ~97% of seeds, so with two
    # chunks the cell fails on practically every seed. Then the planar
    # graph: the generic engine with weight-3 and weight-4 checks and the
    # exclusive-sum pass, which a triangle-only kernel must leave unchanged.
    "bp": _grid(("bp",), (10, 40), ("0.1",), 256)
    + _grid(("bp",), (20,), ("0.1", "0.2"), 512, schedule="extrinsic")
    + _grid(("bp",), (20, 40), ("0.05", "0.1"), 512, graph="planar", schedule="extrinsic"),
}


def load_reference() -> dict:
    """Reference entries by cell key (see make_reference.py)."""
    return json.loads(REFERENCE_PATH.read_text())["cells"]


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def wilson(failures: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial rate."""
    p = failures / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    scale = 1 + z * z / trials
    return max(0.0, (centre - half) / scale), min(1.0, (centre + half) / scale)


def failure_band(entry: dict, trials: int) -> tuple[int, int]:
    """Failure counts consistent with the reference rate at this trial count.

    The reference rate's own interval is widened by the binomial spread of a
    cell this size. A cell that raised at every reference seed has no rate,
    so any count is accepted for it.
    """
    if not entry["trials"]:
        return 0, trials
    p_lo, p_hi = wilson(entry["failures"], entry["trials"], BAND_Z)
    lo = trials * p_lo - BAND_Z * math.sqrt(trials * p_lo * (1 - p_lo))
    hi = trials * p_hi + BAND_Z * math.sqrt(trials * p_hi * (1 - p_hi))
    return max(0, math.floor(lo)), min(trials, math.ceil(hi))


def check_output(cell: Cell, seed: int, stdout: str, reference: dict) -> list[str]:
    """Everything wrong with one cell's CSV output; empty when it is valid."""
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != HEADER:
        return [f"expected the header and one row, got {len(lines)} lines"]
    fields = lines[1].split(",")
    if len(fields) != len(COLUMNS):
        return [f"expected {len(COLUMNS)} columns, got {len(fields)}"]
    row = dict(zip(COLUMNS, fields))
    entry = reference.get(cell.key)
    if entry is None:
        return [f"no reference row for {cell.key}"]
    problems = [
        f"{col} is {row[col]!r}, reference {want!r}"
        for col, want in entry["metadata"].items()
        if row[col] != want
    ]
    for col, want in (("trials", str(cell.trials)), ("seed", str(seed))):
        if row[col] != want:
            problems.append(f"{col} is {row[col]!r}, requested {want!r}")
    try:
        failures = int(row["failures"])
    except ValueError:
        return problems + [f"failures is not an integer: {row['failures']!r}"]
    if not 0 <= failures <= cell.trials:
        return problems + [f"failures {failures} outside [0, {cell.trials}]"]
    p = failures / cell.trials
    stderr = 3.0 / cell.trials if failures == 0 else math.sqrt(p * (1 - p) / cell.trials)
    for col, want in (("p_fail", _fmt(p)), ("stderr", _fmt(stderr))):
        if row[col] != want:
            problems.append(f"{col} is {row[col]!r}, {failures}/{cell.trials} failures give {want!r}")
    lo, hi = failure_band(entry, cell.trials)
    if not lo <= failures <= hi:
        problems.append(
            f"failures {failures} outside the band [{lo}, {hi}] around the reference "
            f"{entry['failures']}/{entry['trials']}"
        )
    return problems
