"""The input contract of the public API, checked with type-confused values.

Every public callable of `lhzcode` either returns or raises an `LhzError`
when one of its parameters is replaced by a str, bool, None, nan, +-inf, a
negative, a float, an int of 2**63 or more (up to 2**1100, past a float's
range), a ragged nested list or a 2-D array, while the others keep small
valid values. No warning may escape either. Huge ints go to sizes and keys,
which must refuse them or handle them at once. Work counts (`iterations`,
`bp_iterations`) take any positive int by design, so a huge one asks for a
long run rather than being bad input; they get every other kind of value.
On/off flags take only a bool and are probed like the rest; the flags of
`DecodeOutcome` are output fields and are not.

The command line is fed random token lists and must exit 0, 1 or 2. `--out`
is left out of the tokens so that no file gets written.
"""

import contextlib
import inspect
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lhzcode
from lhzcode import LhzError, NoiseModel, SimConfig, triangle_graph
from lhzcode.cli import main
from lhzcode.sim import graph_for

WORD = [0, 1, 1]  # a valid n = 3 physical word
FRESH_RNG = object()  # stands for a new generator in each call

# Small valid values for every required parameter of every public callable.
VALID = {
    "NoiseModel": dict(epsilon=0.1),
    "apply_iid_flip": dict(g=WORD, model=NoiseModel(0.1), rng=FRESH_RNG),
    "channel_prior": dict(g_obs=WORD, model=NoiseModel(0.1)),
    "stream": dict(master_seed=1),
    "as_bits": dict(seq=WORD),
    "consecutive_indices": dict(n=3),
    "encode": dict(bits=WORD),
    "index_pair": dict(k=1, n=3),
    "logical_from_consecutive": dict(c=[0, 1]),
    "num_logical": dict(k=3),
    "num_pairs": dict(n=3),
    "pair_index": dict(i=1, j=2, n=3),
    "pair_table": dict(n=3),
    "DecodeOutcome": dict(consecutive=None, word=WORD, beliefs=None, iterations=0, converged=True),
    "bp_decode": dict(graph=triangle_graph(3), priors=np.full((3, 2), 0.5)),
    "epsilon_star": dict(epsilon=0.1),
    "majority_vote_decode": dict(g_obs=WORD),
    "mle_decode": dict(g_obs=WORD, model=NoiseModel(0.1)),
    "FactorGraph": dict(n_vars=3, checks=((0, 1, 2),)),
    "planar_lhz_graph": dict(n=3),
    "triangle_graph": dict(n=3),
    "CellError": dict(decoder="bp", n=3, epsilon=0.1, message="m"),
    "SimConfig": dict(n_values=(3,), eps_values=(0.1,)),
    "SimResult": dict(decoder="bp", graph="triangle", n=3, epsilon=0.1, iterations=5, trials=2, failures=0,
                      p_fail=0.0, stderr=1.5, chernoff=1.0, union_bound=2.0, seed=1),
    "SweepResult": dict(rows=(), errors=()),
    "chernoff_bound": dict(n=3, epsilon=0.1),
    "run_cell": dict(n=3, epsilon=0.1, decoder="bp", trials=2, seed=1),
    "run_sweep": dict(config=SimConfig((3,), (0.1,), trials=2)),
    "union_bound": dict(n=3, epsilon=0.1),
}
OUTPUT_FLAGS = {"converged", "degenerate"}
WORK_COUNTS = {"iterations", "bp_iterations"}


def _public_callables() -> dict:
    return {
        name: obj
        for name, obj in vars(lhzcode).items()
        if not name.startswith("_") and callable(obj)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }


def _call(name: str, replace: dict):
    """Call a public callable with its valid arguments, some of them replaced."""
    fn = _public_callables()[name]
    kwargs = {**VALID[name], **replace}
    if kwargs.get("rng") is FRESH_RNG:
        kwargs["rng"] = np.random.default_rng(0)
    if "subkeys" in kwargs:  # stream's var-positional keys: one extra key
        return fn(kwargs["master_seed"], kwargs["subkeys"])
    return fn(**kwargs)


def _probed():
    """Every (callable, parameter) pair whose parameter is an input."""
    return [
        (name, p.name)
        for name, fn in sorted(_public_callables().items())
        for p in inspect.signature(fn).parameters.values()
        if p.name not in OUTPUT_FLAGS and p.kind is not p.VAR_KEYWORD
    ]


def _ragged(rows):
    return len({len(r) for r in rows}) > 1


RAGGED = st.lists(st.lists(st.integers(0, 1), max_size=3), min_size=2, max_size=3).filter(_ragged)
ARRAYS = st.sampled_from([np.zeros((2, 3)), np.ones((3, 2), dtype=np.uint8), np.full((2, 2), 0.5),
                          np.array([[1.5, -0.5]] * 3), np.array([["0", "1"]])])
HUGE = st.integers(2**63, 2**1100)


def _bad(param: str):
    kinds = [
        st.text(max_size=4),
        st.booleans(),
        st.none(),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.integers(max_value=-1),
        st.floats(-1e6, 1e6),
        RAGGED,
        ARRAYS,
    ]
    if param not in WORK_COUNTS:
        kinds.append(HUGE)
    return st.one_of(kinds)


def test_table_covers_the_public_api():
    names = _public_callables()
    assert set(VALID) == set(names)
    for name, fn in names.items():
        required = {p.name for p in inspect.signature(fn).parameters.values()
                    if p.default is p.empty and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}
        assert required == set(VALID[name]), name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _call(name, {})


def _returns_or_raises_lhz_error(name: str, param: str, value) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _call(name, {param: value})
        except LhzError:
            pass


@pytest.mark.parametrize("name,param", _probed())
def test_each_kind_of_bad_argument(name, param):
    # one value of every kind, so that none is left to chance
    for value in ("", "x", True, None, float("nan"), float("inf"), -float("inf"), -1, 2.5, [[0, 1], [1]],
                  np.zeros((2, 3)), *([] if param in WORK_COUNTS else [2**63, 10**30, 10**400])):
        _returns_or_raises_lhz_error(name, param, value)


@pytest.mark.parametrize("name,param", _probed())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bad_argument_returns_or_raises_lhz_error(name, param, data):
    _returns_or_raises_lhz_error(name, param, data.draw(_bad(param), label=param))


TOKENS = [
    "graph", "decode", "simulate", "bound", "triangle", "planar", "hamming",
    "--n", "--eps", "--decoder", "--trials", "--seed", "--graph", "--schedule", "--iterations",
    "--threads", "--format", "--include-direct", "--all-zero", "--shared-noise", "--help",
    "2", "3", "4", "2..4", "5..3", "2,3", "0.1", "0.2", "011", "0110", "1",
    "bp", "majority", "mle", "belief", "extrinsic", "json", "jsonl", "csv", "text",
    "-1", "0", "1.5", "nan", "inf", "1e999", "x", "",
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=10))
def test_cli_exits_0_1_or_2(argv):
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        assert main(argv) in (0, 1, 2)


# Every entry point that takes an integer, given each one as a fixed-width
# numpy integer. The values fit int8, int16 and uint8 alike, but arithmetic
# in their own width would wrap: n = 100 has 4950 pairs, pair (50, 100) of
# n = 120 is index 4704, and 127 rounds end at round 128.
def _graph(graph):
    return graph.n_vars, graph.entries.tobytes(), graph.offsets.tobytes()


FIXED_WIDTH = {
    "num_pairs": lambda t: lhzcode.num_pairs(t(100)),
    "num_logical": lambda t: lhzcode.num_logical(t(120)),
    "pair_index": lambda t: lhzcode.pair_index(t(50), t(100), t(120)),
    "index_pair": lambda t: lhzcode.index_pair(t(120), t(100)),
    "pair_table": lambda t: lhzcode.pair_table(t(100))[-3:],
    "consecutive_indices": lambda t: lhzcode.consecutive_indices(t(100)).tolist(),
    "graph_for triangle": lambda t: _graph(graph_for("triangle", t(100))),
    "graph_for planar": lambda t: _graph(graph_for("planar", t(120))),
    "FactorGraph": lambda t: _graph(lhzcode.FactorGraph(t(100), ((t(0), t(99), t(50)),))),
    "stream": lambda t: lhzcode.stream(t(100), t(120)).random(3).tolist(),
    "chernoff_bound": lambda t: lhzcode.chernoff_bound(t(100), 0.1),
    "union_bound": lambda t: lhzcode.union_bound(t(100), 0.1),
    "SimConfig": lambda t: SimConfig((t(100), t(120)), (0.1,), trials=t(100), seed=t(7), bp_iterations=t(127)),
    "run_cell majority": lambda t: lhzcode.run_cell(t(100), 0.1, "majority", t(20), t(1), eps_index=t(120)),
    "run_cell bp": lambda t: lhzcode.run_cell(t(12), 0.3, "bp", t(20), t(1), bp_iterations=t(127)),
    "run_sweep": lambda t: lhzcode.run_sweep(SimConfig((t(100),), (0.1,), ("majority",), t(20), t(1)), t(1)),
    "bp_decode": lambda t: lhzcode.bp_decode(triangle_graph(t(4)), np.full((6, 2), 0.5), t(127)).iterations,
}


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8])
@pytest.mark.parametrize("name", FIXED_WIDTH)
def test_fixed_width_integers_give_the_plain_int_result(name, dtype):
    # repr tells a Python int from a numpy integer of the same value (numpy 2)
    got, want = FIXED_WIDTH[name](dtype), FIXED_WIDTH[name](int)
    assert got == want and repr(got) == repr(want)
