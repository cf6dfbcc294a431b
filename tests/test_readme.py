"""The README's examples run as written and print what the README shows."""

import shlex
from pathlib import Path

import pytest

from lhzcode.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _fences():
    """(info string, body) of every fenced block in the README."""
    parts = README.read_text().split("```")
    return [tuple(p.split("\n", 1)) for p in parts[1::2]]


def _cli_examples():
    """(argv, expected stdout) for each `$ lhzcode simulate|bound` example."""
    out = []
    for info, body in _fences():
        for chunk in body.split("$ lhzcode ")[1:]:
            cmd, _, expected = chunk.partition("\n")
            argv = shlex.split(cmd)
            if info == "" and argv[0] in ("simulate", "bound"):
                out.append(pytest.param(argv, expected.rstrip("\n") + "\n", id=argv[0]))
    return out


def test_quickstart_runs():
    blocks = [body for info, body in _fences() if info == "python"]
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


@pytest.mark.parametrize("argv, expected", _cli_examples())
def test_cli_example_output(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_both_cli_examples_found():
    assert sorted(p.values[0][0] for p in _cli_examples()) == ["bound", "simulate"]
