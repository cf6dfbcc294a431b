import json

import pytest

import lhzcode.cli
from lhzcode import InconsistentEvidenceError
from lhzcode.cli import OUTPUT_COLUMNS, main

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

    def test_hamming(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "hamming", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n_vars"] == 7
        assert obj["checks"] == [[0, 1, 2, 4], [1, 2, 3, 5], [2, 3, 4, 6]]

    def test_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "graph", "triangle")
        assert code == 1
        assert "needs --n" in err

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
