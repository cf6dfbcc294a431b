"""Smoke test of the benchmark, at tiny trial counts:

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_emitted(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                  "--trials", "8")
    assert proc.returncode == 0, proc.stderr
    *info, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info
    assert result["attempted"] >= len(workloads.WORKLOADS[workload])
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    env = json.loads(info[-1])["env"]
    assert {"nproc", "cpu_model", "python", "numpy", "commit", "seed"} <= set(env)
    assert env["seed"] == 3


def test_validation_rejects_tampered_rows():
    from lhzcode import cli

    cell = workloads.Cell("majority", 10, "0.1", 50)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(cell.argv(7)) == 0
    good = out.getvalue()
    reference = workloads.load_reference()
    assert workloads.check_output(cell, 7, good, reference) == []

    header, row = good.splitlines()
    f = row.split(",")
    all_failed = f[:6] + ["50", "1", "0"] + f[9:]
    bad_bound = f[:9] + ["0.5"] + f[10:]
    other_seed = f[:11] + ["8"]
    for tampered in (
        "\n".join([header, ",".join(all_failed)]),  # consistent, but far outside the band
        "\n".join([header, ",".join(bad_bound)]),  # metadata differs from the reference
        "\n".join([header, row, row]),  # one row too many
        "\n".join([header, ",".join(other_seed)]),  # not the seed asked for
    ):
        assert workloads.check_output(cell, 7, tampered, reference), tampered


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "majority-mle", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_hook_leaves_metric_out(monkeypatch):
    import hooks

    monkeypatch.setattr(hooks, "HOOKS", (("lhzcode.sim", "_no_such_name", "sim.draw", hooks._draw),))
    tracer = hooks.Tracer()
    tracer.install()
    metrics, notes = hooks.layer_metrics([tracer.snapshot()], tracer.notes)
    assert "sim.draw.s" not in metrics and "sim.draw.us_per_trial" not in metrics
    assert "decoders.bp.s" in metrics
    assert any("sim.draw.s" in n and "_no_such_name" in n for n in notes)
