import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lhzcode.cli
from lhzcode import InconsistentEvidenceError, SimConfig, bp_decode, run_cell
from lhzcode.cli import OUTPUT_COLUMNS, build_parser, main

FLOAT_COLUMNS = {"epsilon", "p_fail", "stderr", "chernoff", "union_bound"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_row(line):
    """One CSV data line as a {column: field} dict of strings."""
    fields = line.split(",")
    assert len(fields) == len(OUTPUT_COLUMNS)
    return dict(zip(OUTPUT_COLUMNS, fields))


class TestGraphCmd:
    def test_triangle_json(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "triangle", "--n", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 4 and obj["n_vars"] == 6 and obj["n_checks"] == 4
        assert obj["checks"] == [[0, 1, 3], [0, 2, 4], [1, 2, 5], [3, 4, 5]]
        assert obj["pairs"][0] == [1, 2] and obj["pairs"][-1] == [3, 4]

    def test_planar_text(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "planar", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert "n_checks: 3" in lines
        assert "check 2: 1 2 3 4" in lines

    # sha256 of the whole stdout, so any changed byte, key order or line order shows
    FROZEN = {
        ("triangle", 2, "text"): "dae236e6163b65142dd1004fd31487038eca79f14304f402085b2b272289eb12",
        ("triangle", 2, "json"): "5b6b3800ad910fd0e942050a7983ec5ddbe5b3cb2b32416aeb6240da9a277abe",
        ("triangle", 4, "text"): "654f58997ff099b42487402a92b2446e68642f2111f5f0eb988a813a61590015",
        ("triangle", 4, "json"): "f79ee98f4dcffa7eff2b784a1d87cfff4dae975a5462f33ab8743cdd883f294d",
        ("triangle", 5, "text"): "03d10656ef24cdea09d9b39b458b9d253e9cccee2e7582c67e5e3d6564257d0c",
        ("triangle", 5, "json"): "5f2cef8a2c181522d4b5cb6c3a32145ef06aa51c54771f3f605b6327af450a65",
        ("planar", 2, "text"): "fa35b276678f3a325f028c74c608a7cfda7aa7a6187b14209324f66162219913",
        ("planar", 2, "json"): "f189e66984440a6f61035e9f2c12b334f10d09d01050a8724bb81c02fd946f27",
        ("planar", 4, "text"): "ff283a09822789edc9d65840a371228212be89bdc112ee8f6177955515b0cd0f",
        ("planar", 4, "json"): "856c04a0422d5ea74378258af865e99fcf1464dcc567e9cf166c567dfee39d18",
        ("planar", 5, "text"): "78d0dcaa9ad872fcea03a5bfd127bd1e3abd5fc4a46e5eacc218108a56740b6f",
        ("planar", 5, "json"): "f1a50297c271d2dc71eb0baf4e86514b4038fd5e4358a8526ee033943bdbc713",
    }

    @pytest.mark.parametrize("kind, n, fmt", list(FROZEN), ids=[f"{k}-{n}-{f}" for k, n, f in FROZEN])
    def test_frozen_bytes(self, capsys, kind, n, fmt):
        code, out, err = run_cli(capsys, "graph", kind, "--n", str(n), "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.FROZEN[kind, n, fmt]

    def test_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "graph", "triangle")
        assert code == 1
        assert "required: --n" in err

    @pytest.mark.parametrize("kind", ["triangle", "planar"])
    def test_n2_is_the_graph_decoders_run_on(self, capsys, kind):
        # the one-variable, zero-check graph that decode and simulate use
        code, out, _ = run_cli(capsys, "graph", kind, "--n", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["n_vars"], obj["n_checks"], obj["checks"]) == (1, 0, [])
        assert obj["pairs"] == [[1, 2]]
        code, _, err = run_cli(capsys, "graph", kind, "--n", "1")
        assert code == 1 and "n >= 2" in err


class TestDecodeCmd:
    def test_bp_walkthrough(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "000001", "--eps", "0.1", "--iterations", "1")
        assert code == 0
        assert "consecutive: 000" in out
        assert "logical: 0000" in out
        assert "word: 000000" in out
        assert "g(1,2): p0=0.994675" in out
        assert "g(3,4): p0=0.69751" in out
        assert "converged: no" in out

    def test_majority(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "000001", "--decoder", "majority")
        assert code == 0
        assert "consecutive: 000" in out
        assert "beliefs" not in out
        assert "iterations: 0" in out

    def test_mle_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "101", "--decoder", "mle", "--eps", "0.5")
        assert code == 0
        assert "degenerate: yes" in out
        assert "word: 000" in out

    def test_bad_word(self, capsys):
        code, _, err = run_cli(capsys, "decode", "0102")
        assert code == 1 and "error" in err

    def test_bad_length(self, capsys):
        code, _, err = run_cli(capsys, "decode", "01")
        assert code == 1 and "n(n-1)/2" in err

    def test_n_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "decode", "000001", "--n", "5")
        assert code == 1 and "does not match" in err

    def test_capacity_exit(self, capsys):
        word = "0" * (25 * 24 // 2)
        code, _, err = run_cli(capsys, "decode", word, "--decoder", "mle")
        assert code == 2
        assert "2^24" in err


class TestSimulateCmd:
    ARGS = [
        "simulate", "--n", "2,4", "--eps", "0.1,0.2", "--decoder", "majority,bp",
        "--trials", "50", "--seed", "99", "--iterations", "2",
    ]

    def test_csv_shape(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(OUTPUT_COLUMNS)
        assert len(lines) == 1 + 8
        row = csv_row(lines[1])
        assert [row[c] for c in ("decoder", "n", "epsilon", "trials", "seed")] == ["majority", "2", "0.1", "50", "99"]
        assert row["iterations"] == "0"
        bp_row = csv_row(lines[5])
        assert bp_row["decoder"] == "bp" and bp_row["iterations"] == "2"

    def test_reruns_identical(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_threads_identical(self, capsys):
        _, serial, _ = run_cli(capsys, *self.ARGS)
        _, threaded, _ = run_cli(capsys, *self.ARGS, "--threads", "8")
        assert serial == threaded

    def test_csv_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        # every field reads back to a value that formats to the same text
        for line in out.strip().splitlines()[1:]:
            for c, f in csv_row(line).items():
                if c in FLOAT_COLUMNS:
                    assert format(float(f), ".6g") == f
                elif c not in ("decoder", "graph"):
                    assert str(int(f)) == f

    def test_jsonl_matches_csv(self, capsys):
        _, csv_out, _ = run_cli(capsys, *self.ARGS)
        _, jsonl_out, _ = run_cli(capsys, *self.ARGS, "--format", "jsonl")
        csv_rows = [csv_row(l) for l in csv_out.strip().splitlines()[1:]]
        json_rows = [json.loads(l) for l in jsonl_out.strip().splitlines()]
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert list(j) == list(OUTPUT_COLUMNS)
            for col in OUTPUT_COLUMNS:
                want = format(j[col], ".6g") if col in FLOAT_COLUMNS else str(j[col])
                assert c[col] == want

    def test_out_file(self, capsys, tmp_path):
        _, stdout_version, _ = run_cli(capsys, *self.ARGS)
        path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == stdout_version

    def test_generated_seed_echoed(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "2", "--eps", "0.1", "--trials", "5"
        )
        assert code == 0
        assert err.startswith("seed: ")
        seed = int(err.split()[1])
        assert csv_row(out.strip().splitlines()[1])["seed"] == str(seed)

    def test_range_syntax(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "2..4", "--eps", "0.1", "--trials", "5", "--seed", "1"
        )
        assert code == 0
        ns = [csv_row(l)["n"] for l in out.strip().splitlines()[1:]]
        assert ns == ["2", "3", "4"]

    def test_capacity_cell_exit_2_with_partial_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "4,30", "--eps", "0.1", "--decoder", "mle",
            "--trials", "10", "--seed", "4",
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 2  # header plus the feasible cell
        assert csv_row(lines[1])["n"] == "4"
        assert "mle n=30" in err

    def test_oversized_graph_exits_2_under_a_memory_cap(self):
        # The n=1000 triangle graph has 166M checks. Under a 2 GB address-space
        # cap, building them ended in a MemoryError traceback and exit 1.
        resource = pytest.importorskip("resource")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 2_000_000 * 1024 if hard == resource.RLIM_INFINITY else min(2_000_000 * 1024, hard)
        env = dict(os.environ, PYTHONPATH=str(Path(lhzcode.cli.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        argv = [sys.executable, "-m", "lhzcode.cli", "simulate", "--n", "1000", "--eps", "0.1",
                "--decoder", "bp", "--trials", "1", "--seed", "1"]
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(b"error: bp n=1000 eps=0.1: the triangle graph at n=1000 has")
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "4", "--eps", "0.9", "--trials", "5"],
            ["simulate", "--n", "1", "--eps", "0.1", "--trials", "5"],
            ["simulate", "--n", "4", "--eps", "0.1", "--trials", "0"],
            ["simulate", "--n", "4", "--eps", "0.1", "--trials", "5", "--decoder", "turbo"],
            ["simulate", "--n", "4", "--eps", "0.1", "--trials", "5", "--threads", "0"],
            ["simulate", "--n", "5..3", "--eps", "0.1", "--trials", "5"],
            ["simulate", "--n", "x", "--eps", "0.1", "--trials", "5"],
            ["simulate", "--n", "2..x", "--eps", "0.1", "--trials", "5"],
            ["simulate", "--n", "2,3..5", "--eps", "0.1", "--trials", "5"],
            ["simulate", "--n", "", "--eps", "0.1", "--trials", "5"],
            ["simulate", "--n", "4", "--eps", "0.1,abc", "--trials", "5"],
            # more trials than one (trials, k) word array can be shaped for
            ["simulate", "--n", "4", "--eps", "0.1", "--trials", "99999999999999999999"],
            # a pair table whose indices do not fit one array is refused at once
            ["simulate", "--n", "99999999999999999999", "--eps", "0.1", "--trials", "5"],
            ["graph", "planar", "--n", "99999999999999999999"],
            ["graph", "hamming", "--n", "4"],
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, *(["--seed", "1"] if argv[0] == "simulate" else []))
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "4", "--eps", "0.1", "--frobnicate")
        assert code == 1


class TestBoundCmd:
    def test_frozen_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "20,40", "--eps", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,epsilon,eps_star,chernoff,union_bound"
        assert lines[1] == "20,0.1,0.18,0.0250621,0.476179"
        assert lines[2] == "40,0.1,0.18,0.00041701,0.0162634"

    def test_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "10", "--eps", "0.1", "--format", "jsonl")
        assert code == 0
        obj = json.loads(out.strip())
        assert obj["union_bound"] == pytest.approx(1.74862)

    def test_domain(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--n", "1", "--eps", "0.1")
        assert code == 1
        # a bad value late in the grid still prints no partial output
        for argv in (["--n", "4,1", "--eps", "0.1"], ["--n", "4", "--eps", "0.1,0.9"]):
            code, out, err = run_cli(capsys, "bound", *argv)
            assert (code, out) == (1, "") and "error" in err


@pytest.mark.parametrize("argv", [["simulate", "--trials", "5", "--seed", "1"], ["bound"]], ids=["simulate", "bound"])
def test_unwritable_out(capsys, tmp_path, monkeypatch, argv):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(lhzcode.cli, "run_sweep", sweep)
    for path in (tmp_path / "missing" / "rows.csv", tmp_path):
        code, out, err = run_cli(capsys, *argv, "--n", "4", "--eps", "0.1", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write --out") and str(path) in err


def test_failed_sweep_leaves_no_out_file(capsys, tmp_path, monkeypatch):
    def sweep(*args, **kwargs):
        raise InconsistentEvidenceError("conflicting hard evidence")

    monkeypatch.setattr(lhzcode.cli, "run_sweep", sweep)
    path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "simulate", "--n", "4", "--eps", "0.1", "--seed", "1", "--out", str(path))
    assert (code, out) == (1, "") and "conflicting hard evidence" in err
    assert not path.exists()


class TestTopLevel:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_parser_built_once_per_process(self, capsys):
        lhzcode.cli._parser.cache_clear()
        argv = ("simulate", "--n", "4", "--eps", "0.1", "--trials", "20", "--seed", "3")
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, "simulate", "--n")[0] == 1  # a refused parse leaves the parser as it was
        assert run_cli(capsys, *argv) == first
        assert lhzcode.cli._parser.cache_info().misses == 1
        build = lhzcode.cli.build_parser
        assert build() is not build()  # the public builder still hands out a fresh parser

    def test_closed_pipe_exits_1_without_traceback(self):
        # 2999 bound rows are more than a pipe buffer holds, so a write fails
        # once the reader has closed its end after the header line.
        env = dict(os.environ, PYTHONPATH=str(Path(lhzcode.cli.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "lhzcode.cli", "bound", "--n", "2..3000", "--eps", "0.1"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            header = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert header == b"n,epsilon,eps_star,chernoff,union_bound\n"
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err, err


def test_output_columns_pinned():
    # SimResult's compared fields, in order; its compare=False extras stay out
    assert OUTPUT_COLUMNS == ("decoder", "graph", "n", "epsilon", "iterations", "trials", "failures", "p_fail",
                              "stderr", "chernoff", "union_bound", "seed")


def test_defaults_agree():
    # The settings defaults are written in SimConfig, run_cell, bp_decode and
    # the simulate and decode parsers; they must be one set.
    config = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    cell = {name: p.default for name, p in inspect.signature(run_cell).parameters.items()}
    bp = {name: p.default for name, p in inspect.signature(bp_decode).parameters.items()}
    simulate = vars(build_parser().parse_args(["simulate", "--n", "4", "--eps", "0.1"]))
    decode = vars(build_parser().parse_args(["decode", "011"]))
    assert simulate["trials"] == config["trials"]
    assert simulate["iterations"] == decode["iterations"] == cell["bp_iterations"] == bp["iterations"] == config["bp_iterations"]
    assert simulate["schedule"] == decode["schedule"] == cell["schedule"] == bp["schedule"] == config["schedule"]
    assert simulate["graph"] == decode["graph"] == cell["graph"] == config["graph"]
    assert simulate["include_direct"] == decode["include_direct"] == cell["include_direct"] == config["include_direct"]
    for flag in ("all_zero", "shared_noise"):
        assert simulate[flag] == cell[flag] == config[flag], flag
