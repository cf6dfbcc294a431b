import gc
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhzcode import (
    CapacityError,
    ConfigError,
    DimensionError,
    FactorGraph,
    InconsistentEvidenceError,
    NoiseModel,
    apply_iid_flip,
    bp_decode,
    channel_prior,
    consecutive_indices,
    encode,
    epsilon_star,
    majority_vote_decode,
    mle_decode,
    num_logical,
    num_pairs,
    pair_index,
    stream,
    triangle_graph,
    planar_lhz_graph,
)
import lhzcode.decoders
from lhzcode.decoders import SCHEDULES, _bp_batch, _majority_batch, _mle_batch

from reference import (
    consecutive_bits,
    enumerate_codewords,
    exact_marginals,
    hamming_7_4,
    logical_readout,
    majority_batch_int64,
    mle_batch_distance,
    naive_belief_bp,
    naive_extrinsic_bp,
    nearest_codeword_bruteforce,
    slot_major_bp_batch,
    syndrome,
    vote_majority,
)
from reference import _hard as reference_hard

bit_words = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
)


class TestEpsilonStar:
    def test_frozen(self):
        assert epsilon_star(0.1) == pytest.approx(0.18, abs=1e-15)
        assert epsilon_star(0.2) == pytest.approx(0.32, abs=1e-15)
        assert epsilon_star(0.0) == 0.0
        assert epsilon_star(0.5) == 0.5

    @given(st.floats(0.0, 0.5))
    def test_formula_and_range(self, e):
        v = epsilon_star(e)
        assert v == pytest.approx(2 * e * (1 - e))
        assert 0.0 <= v <= 0.5
        assert v >= e or e == 0.0  # parity of two bits is noisier than one

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_star(0.6)
        with pytest.raises(ValueError):
            epsilon_star(-0.1)


def _one_round(checks, priors):
    """Beliefs after a single belief-schedule round on the given checks."""
    fg = FactorGraph(len(priors), checks)
    return bp_decode(fg, np.array(priors, dtype=float), iterations=1).beliefs


class TestMessagePrimitives:
    # A flat-prior variable's one-round belief is exactly the check message
    # it receives, so these pin the engine's check and variable updates.
    def test_constraint_message_frozen(self):
        m = _one_round(((0, 1, 2),), [(0.9, 0.1), (0.9, 0.1), (0.5, 0.5)])[2]
        assert np.allclose(m, [0.82, 0.18], atol=1e-12)
        m = _one_round(((0, 1, 2),), [(1.0, 0.0), (0.9, 0.1), (0.5, 0.5)])[2]
        assert np.allclose(m, [0.9, 0.1], atol=1e-12)

    def test_constraint_message_edge_cases(self):
        # no other neighbor: the check pins its lone variable to even parity
        assert np.allclose(_one_round(((0,),), [(0.5, 0.5)])[0], [1.0, 0.0])
        m = _one_round(((0, 1, 2),), [(0.5, 0.5), (0.99, 0.01), (0.5, 0.5)])[2]
        assert np.allclose(m, [0.5, 0.5])
        # hard inputs compose like xor
        m = _one_round(((0, 1, 2),), [(0.0, 1.0), (0.0, 1.0), (0.5, 0.5)])[2]
        assert np.allclose(m, [1.0, 0.0])

    def test_variable_update_frozen(self):
        out = _one_round(((0, 1, 2),), [(0.9, 0.1)] * 3)[2]
        assert np.allclose(out, [0.738 / 0.756, 0.018 / 0.756], atol=1e-12)

    def test_variable_update_empty(self):
        assert np.allclose(_one_round((), [(0.3, 0.7)])[0], [0.3, 0.7])

    def test_variable_update_conflict(self):
        # the check forces g2 = g0 xor g1 = 0 against a hard prior of 1
        fg = FactorGraph(3, ((0, 1, 2),))
        priors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for schedule in SCHEDULES:
            with pytest.raises(InconsistentEvidenceError):
                bp_decode(fg, priors, iterations=1, schedule=schedule)

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5))
    def test_normalization(self, ps):
        priors = [(p, 1 - p) for p in ps] + [(0.5, 0.5)]
        checks = (tuple(range(len(priors))),)
        out = _one_round(checks, priors)
        assert np.allclose(out.sum(axis=1), 1.0)
        want = naive_belief_bp(FactorGraph(len(priors), checks), priors, 1)
        assert np.allclose(out, want, atol=1e-12)


def _single_check_fixture():
    fg = FactorGraph(3, ((0, 1, 2),))
    priors = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]])
    return fg, priors


class TestBpFixedPoints:
    def test_single_check_exact_one_iteration(self):
        fg, priors = _single_check_fixture()
        want = np.array([81 / 122, 81 / 122, 41 / 122])
        for schedule in ("belief", "extrinsic"):
            out = bp_decode(fg, priors, iterations=1, schedule=schedule)
            assert np.abs(out.beliefs[:, 0] - want).max() < 1e-12
        assert np.abs(exact_marginals(fg, priors)[:, 0] - want).max() < 1e-12

    def test_one_round_walkthrough(self):
        # n=4, eps=0.1, flip on (3,4): after one round the flipped bit is
        # pulled to 0.6975.. and the opposite pair sharpens to 0.99467..
        g = np.array([0, 0, 0, 0, 0, 1], dtype=np.uint8)
        priors = channel_prior(g, NoiseModel(0.1))
        want = np.array(
            [0.9946745562130177, 0.9, 0.9, 0.9, 0.9, 0.6975103734439834]
        )
        out = bp_decode(triangle_graph(4), priors, iterations=1, observed=g)
        assert np.abs(out.beliefs[:, 0] - want).max() < 1e-9
        assert out.word.tolist() == [0, 0, 0, 0, 0, 0]
        assert out.consecutive.tolist() == [0, 0, 0]
        # both schedules coincide on the first round
        out2 = bp_decode(triangle_graph(4), priors, iterations=1, schedule="extrinsic", observed=g)
        assert np.abs(out2.beliefs - out.beliefs).max() < 1e-12

    def test_converged_flag(self):
        g = np.array([0, 0, 0, 0, 0, 1], dtype=np.uint8)
        priors = channel_prior(g, NoiseModel(0.1))
        one = bp_decode(triangle_graph(4), priors, iterations=1, observed=g)
        two = bp_decode(triangle_graph(4), priors, iterations=2, observed=g)
        assert not one.converged  # first round flips the noisy bit
        assert two.converged
        assert one.iterations == 1 and two.iterations == 2

    def test_clean_word_is_fixed_point(self):
        g = encode("0110")
        priors = channel_prior(g, NoiseModel(0.1))
        out = bp_decode(triangle_graph(4), priors, iterations=4, observed=g)
        assert (out.word == g).all()
        assert out.converged


class TestBpAgainstNaive:
    @pytest.mark.parametrize("schedule", ["belief", "extrinsic"])
    @pytest.mark.parametrize("iterations", [1, 2, 4])
    @pytest.mark.parametrize(
        "graph",
        [
            triangle_graph(4),
            triangle_graph(5),
            planar_lhz_graph(5),
            hamming_7_4(),
            FactorGraph(3, ((0, 1), (1, 2))),
            FactorGraph(1, ()),
            FactorGraph(7, ((0, 1, 2, 3, 4, 5), (2, 6))),
        ],
        ids=["tri4", "tri5", "planar5", "hamming", "chain", "empty", "weight6"],
    )
    def test_engine_matches_reference(self, graph, iterations, schedule):
        rng = stream(2024, graph.n_vars, iterations, {"belief": 1, "extrinsic": 2}[schedule])
        p = rng.uniform(0.05, 0.95, graph.n_vars)
        priors = np.stack([p, 1 - p], axis=1)
        ref = naive_belief_bp if schedule == "belief" else naive_extrinsic_bp
        out = bp_decode(graph, priors, iterations=iterations, schedule=schedule)
        assert np.abs(out.beliefs - ref(graph, priors, iterations)).max() < 1e-12

    @pytest.mark.parametrize("schedule", ["belief", "extrinsic"])
    @pytest.mark.parametrize("iterations", [1, 2, 4])
    @pytest.mark.parametrize(
        "graph",
        [triangle_graph(5), planar_lhz_graph(5), hamming_7_4()],
        ids=["tri5", "planar5", "hamming"],
    )
    def test_consistent_hard_priors_match_reference(self, graph, iterations, schedule):
        # infinite LLRs from exactly-hard rows of a codeword, carried through
        # several rounds of weight-3/4 checks next to soft rows
        rng = stream(2025, graph.n_vars, iterations, {"belief": 1, "extrinsic": 2}[schedule])
        words = sorted(enumerate_codewords(graph))
        word = np.array(words[rng.integers(len(words))], dtype=np.uint8)
        p = rng.uniform(0.05, 0.95, graph.n_vars)
        hard = rng.random(graph.n_vars) < 0.4
        p[hard] = 1.0 - word[hard]
        priors = np.stack([p, 1 - p], axis=1)
        ref = naive_belief_bp if schedule == "belief" else naive_extrinsic_bp
        out = bp_decode(graph, priors, iterations=iterations, schedule=schedule)
        assert hard.any()
        assert np.abs(out.beliefs - ref(graph, priors, iterations)).max() < 1e-12


_MIXED = FactorGraph(6, ((0, 1), (1, 2, 3), (0, 2, 4, 5), (3,), (4, 5)))
_HAMMING = hamming_7_4()


def _codeword(graph, rng):
    """A random codeword: encoded logical bits on the pairwise-parity graphs,
    one of the enumerated codewords on the small fixtures."""
    if graph is _HAMMING or graph is _MIXED:  # graphs compare by identity
        words = sorted(enumerate_codewords(graph))
        return np.array(words[rng.integers(len(words))], dtype=np.uint8)
    return encode(rng.integers(0, 2, num_logical(graph.n_vars), dtype=np.uint8))


def _assert_matches_oracle(graph, p0, observed, iterations, schedule, label):
    """_bp_batch and the slot-major oracle raise alike or return the same bytes and dtypes."""
    runs = []
    for engine in (_bp_batch, slot_major_bp_batch):
        try:
            runs.append(engine(graph, p0, observed, iterations, schedule))
        except InconsistentEvidenceError:
            runs.append(None)
    new, old = runs
    assert (new is None) == (old is None), label
    for a, b in zip(new or (), old or ()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), label


_SLOT_MAJOR_GRAPHS = (
    [triangle_graph(n) for n in range(3, 13)] + [planar_lhz_graph(n) for n in range(3, 21)] + [_HAMMING, _MIXED]
)
_SLOT_MAJOR_IDS = [f"tri{n}" for n in range(3, 13)] + [f"planar{n}" for n in range(3, 21)] + ["hamming", "mixed"]


class TestBpAgainstSlotMajor:
    """The package engine, per-edge arrays by degree slot, against the
    engine of (check, position) slots it replaced, bit for bit: every graph
    here has checks of weight <= 4. Batches of one trial stay out: there the
    oracle's own g.sum adds pairwise."""

    @staticmethod
    def _check(graph, schedule, t):
        rng = stream(2026, graph.n_vars, graph.n_checks, {"belief": 1, "extrinsic": 2}[schedule])
        observed = rng.integers(0, 2, (t, graph.n_vars), dtype=np.uint8)
        word = np.stack([_codeword(graph, rng) for _ in range(t)])
        hard = rng.random((t, graph.n_vars)) < 0.3
        priors = {
            "channel": np.where(observed == 0, 0.9, 0.1),
            "uniform": rng.uniform(0.02, 0.98, (t, graph.n_vars)),
            # exactly-hard rows of a codeword next to soft ones ...
            "hard": np.where(hard, 1.0 - word, rng.uniform(0.02, 0.98, (t, graph.n_vars))),
            # ... and of a random word, which may contradict a check
            "conflict": np.where(hard, 1.0 - observed, 0.5),
        }
        for iterations in (1, 3, 6):
            for kind, p0 in priors.items():
                _assert_matches_oracle(graph, p0, observed, iterations, schedule, (kind, iterations))

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("graph", _SLOT_MAJOR_GRAPHS, ids=_SLOT_MAJOR_IDS)
    def test_bit_identical(self, graph, schedule):
        self._check(graph, schedule, 8)

    @pytest.mark.parametrize("t", [2, 9, 33])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("graph", _SLOT_MAJOR_GRAPHS, ids=_SLOT_MAJOR_IDS)
    def test_bit_identical_batch_sizes(self, graph, schedule, t):
        self._check(graph, schedule, t)

    @pytest.mark.parametrize("width", [1, 3, None], ids=["one-slot", "partial-last", "one-block"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "graph", [triangle_graph(12), triangle_graph(19), planar_lhz_graph(12), planar_lhz_graph(20)],
        ids=["tri12", "tri19", "planar12", "planar20"],
    )
    def test_bit_identical_slot_blocks(self, monkeypatch, graph, schedule, width):
        # Blocks of one slot, of three slots with a shorter last one (the
        # graphs' max degrees, 10, 17 and 4, are not multiples of 3), and
        # every slot in one block give the same bytes as the oracle.
        t = 8
        d_max = lhzcode.decoders._bp_layout(graph, schedule).shape[1]
        assert d_max % 3
        budget = 1 << 40 if width is None else width * 8 * graph.n_vars * t
        monkeypatch.setattr(lhzcode.decoders, "_BP_SLOT_BYTES", budget)
        self._check(graph, schedule, t)


def test_belief_schedule_holds_no_per_edge_array():
    # Triangle n=40, 32 trials: one per-edge array is 38 x 780 x 32 x 8 bytes,
    # 7.6 MB, and the engine that held two of them peaked at 15.8 MiB. The
    # belief schedule now holds blocks of degree slots within _BP_SLOT_BYTES.
    graph = triangle_graph(40)
    observed, priors = _exit_batch(graph, 0.1, t=32)
    _bp_batch(graph, priors["channel"], observed, 5, "belief")  # builds the partner table the graph keeps
    tracemalloc.start()
    try:
        _bp_batch(graph, priors["channel"], observed, 5, "belief")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_dropped_graph_frees_its_table(monkeypatch, schedule):
    # A partner table lives as long as its graph: once a decoded graph is
    # dropped, the graph and its table are both collected.
    layout, tables = lhzcode.decoders._bp_layout, []

    def spy(g, s):
        tables.append(layout(g, s))
        return tables[-1]

    monkeypatch.setattr(lhzcode.decoders, "_bp_layout", spy)
    graph = FactorGraph(28, triangle_graph(8).checks)
    bp_decode(graph, np.tile([0.9, 0.1], (graph.n_vars, 1)), schedule=schedule)
    (table,) = tables
    refs = weakref.ref(graph), weakref.ref(table)
    del graph, table
    tables.clear()
    gc.collect()
    assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_graph_without_variables(schedule):
    # No variable and no trial byte: the slot blocks are sized without dividing by zero.
    out = bp_decode(FactorGraph(0, ()), np.zeros((0, 2)), schedule=schedule)
    assert out.word.size == 0 and out.beliefs.shape == (0, 2) and out.converged


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_hard_decision_rule(dtype):
    # Above 1/2 gives 0, below gives 1, and anything else keeps the observed
    # bit: an exact tie, NaN. Same dtype and bytes as the nested np.where rule.
    values = [0.0, 0.25, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0, np.nan, -np.inf, np.inf, -0.0]
    p0 = np.array([values, values[::-1]] * 2)
    observed = np.array([[0] * len(values)] * 2 + [[1] * len(values)] * 2, dtype=dtype)
    got = lhzcode.decoders._hard(np.ascontiguousarray(p0.T), observed)
    want = reference_hard(p0, observed)
    assert got.dtype == want.dtype == np.uint8 and got.tobytes() == want.tobytes()


def _exit_batch(graph, eps, t=16, seed=41):
    """Observed words and three prior kinds for a batch of noisy codewords:
    channel priors, the same with a tenth of the rows exactly hard toward the
    sent codeword (prior LLR +-inf), and uniform random priors."""
    rng = stream(seed, graph.n_vars)
    true = encode(rng.integers(0, 2, (t, num_logical(graph.n_vars)), dtype=np.uint8))
    observed = apply_iid_flip(true, NoiseModel(eps), rng)
    channel = np.where(observed == 0, 1.0 - eps, eps)
    hard = rng.random(observed.shape) < 0.1
    priors = {"channel": channel, "hard": np.where(hard, 1.0 - true, channel),
              "uniform": rng.uniform(0.02, 0.98, observed.shape)}
    return observed, priors


class _CountExp:
    """Stands in for numpy inside lhzcode.decoders and counts np.exp calls:
    _bp_batch makes one per round it runs, for the new beliefs. (Its np.log1p
    calls come two per block of degree slots, and a round may have several.)"""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.calls += 1
        return np.exp(*args, **kwargs)


_EXIT_CASES = (
    [pytest.param(triangle_graph(n), 0.05, s, 16, 41, id=f"tri{n}-{s}") for n in (12, 14, 16) for s in SCHEDULES]
    + [pytest.param(planar_lhz_graph(20), 0.1, s, 16, 41, id=f"planar20-{s}") for s in SCHEDULES]
    + [
        pytest.param(planar_lhz_graph(20), 0.1, "belief", 4, 41, id="planar20-belief-t4"),
        pytest.param(planar_lhz_graph(20), 0.1, "extrinsic", 4, 46, id="planar20-extrinsic-t4"),
        pytest.param(triangle_graph(20), 0.2, "extrinsic", 16, 41, id="tri20-extrinsic"),
    ]
)


class TestBpFixedPointExit:
    """_bp_batch stops once a batch's state repeats bit for bit; the oracle
    slot_major_bp_batch always runs every round. The triangle batches at eps
    0.05 settle within a few rounds, the planar ones run longer (uniform
    priors never settle in 40 rounds), and at triangle n=20, eps 0.2 the
    trials settle at different rounds, so settled trials are recomputed
    while the rest of the batch goes on. In the four-trial planar batches
    the hard decisions stop changing while the beliefs still move (belief),
    and with hard priors the beliefs repeat while the per-edge biases still
    change (extrinsic), so an exit on either would stop too soon."""

    @pytest.mark.parametrize("graph,eps,schedule,t,seed", _EXIT_CASES)
    def test_matches_every_round(self, graph, eps, schedule, t, seed):
        observed, priors = _exit_batch(graph, eps, t, seed)
        for iterations in (1, 2, 3, 4, 7, 40):
            for kind, p0 in priors.items():
                _assert_matches_oracle(graph, p0, observed, iterations, schedule, (kind, iterations))

    @staticmethod
    def _rounds_run(monkeypatch, graph, p0, observed, iterations, schedule):
        spy = _CountExp()
        with monkeypatch.context() as m:
            m.setattr(lhzcode.decoders, "np", spy)
            out = _bp_batch(graph, p0, observed, iterations, schedule)
        return spy.calls, out

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_settled_batch_skips_rounds(self, monkeypatch, schedule):
        graph = triangle_graph(14)
        observed, priors = _exit_batch(graph, 0.05)
        for kind, p0 in priors.items():
            rounds, (_, _, conv, _) = self._rounds_run(monkeypatch, graph, p0, observed, 40, schedule)
            assert rounds < 40 and conv.all(), kind

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "graph,eps,kind,settles",
        [(planar_lhz_graph(20), 0.1, "uniform", False), (triangle_graph(14), 0.05, "channel", True),
         (triangle_graph(14), 0.05, "hard", True)],
        ids=["planar20-uniform", "tri14-channel", "tri14-hard"],
    )
    def test_returns_rounds_run(self, monkeypatch, graph, eps, kind, settles, schedule):
        # Uniform priors on the planar graph do not settle in 40 rounds; the
        # triangle batches reach a fixed point within a few.
        observed, priors = _exit_batch(graph, eps)
        spied, out = self._rounds_run(monkeypatch, graph, priors[kind], observed, 40, schedule)
        assert out[3] == spied
        if not settles:
            assert out[3] == 40
            return
        assert out[3] < 40 and out[2].all()
        again = _bp_batch(graph, priors[kind], observed, out[3], schedule)
        assert again[3] == out[3]
        for a, b in zip(again[:3], out[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_outcome_reports_requested_rounds(self, monkeypatch):
        g = encode([0, 1, 1, 0, 1, 0])
        rounds, _ = self._rounds_run(monkeypatch, triangle_graph(6), np.where(g == 0, 0.9, 0.1)[None, :], g[None, :],
                                     40, "belief")
        out = bp_decode(triangle_graph(6), channel_prior(g, NoiseModel(0.1)), iterations=40, observed=g)
        assert rounds < 40 and out.iterations == 40 and out.converged

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_unsettled_batch_runs_every_round(self, monkeypatch, schedule):
        graph = planar_lhz_graph(20)
        observed, priors = _exit_batch(graph, 0.1)
        for iterations in (5, 40):
            rounds, _ = self._rounds_run(monkeypatch, graph, priors["uniform"], observed, iterations, schedule)
            assert rounds == iterations


class TestBpTreeExactness:
    @pytest.mark.parametrize(
        "graph,priors,iterations",
        [
            (
                FactorGraph(3, ((0, 1), (1, 2))),
                [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]],
                3,
            ),
            (
                FactorGraph(4, ((0, 1), (0, 2), (0, 3))),
                [[0.6, 0.4], [0.9, 0.1], [0.2, 0.8], [0.55, 0.45]],
                4,
            ),
            (
                FactorGraph(5, ((0, 1, 2), (2, 3), (3, 4))),
                [[0.7, 0.3], [0.35, 0.65], [0.5, 0.5], [0.9, 0.1], [0.25, 0.75]],
                6,
            ),
        ],
        ids=["chain", "star", "mixed"],
    )
    def test_extrinsic_exact_on_trees(self, graph, priors, iterations):
        priors = np.array(priors)
        out = bp_decode(graph, priors, iterations=iterations, schedule="extrinsic")
        assert np.abs(out.beliefs - exact_marginals(graph, priors)).max() < 1e-12

    def test_belief_schedule_overcounts_on_trees(self):
        # the feedback schedule re-uses posteriors, so on a multi-check tree
        # it settles away from the exact marginals; this pins that behavior
        graph = FactorGraph(3, ((0, 1), (1, 2)))
        priors = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]])
        out = bp_decode(graph, priors, iterations=10, schedule="belief")
        err = np.abs(out.beliefs - exact_marginals(graph, priors)).max()
        assert err > 1e-3


class TestSingleFlipCorrection:
    @pytest.mark.parametrize("schedule", ["belief", "extrinsic"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_triangle_graph_corrects_any_single_flip(self, n, schedule):
        fg = triangle_graph(n)
        rng = stream(505, n)
        for _ in range(4):
            g = encode(rng.integers(0, 2, size=n, dtype=np.uint8))
            for v in range(g.size):
                w = g.copy()
                w[v] ^= 1
                out = bp_decode(fg, channel_prior(w, NoiseModel(0.1)),
                                iterations=5, schedule=schedule, observed=w)
                assert (out.word == g).all()

    def test_hamming_fixture_beliefs_have_no_pair_layout(self):
        fg = hamming_7_4()
        w = np.zeros(7, dtype=np.uint8)
        out = bp_decode(fg, channel_prior(w, NoiseModel(0.1)), iterations=2,
                        schedule="extrinsic", observed=w)
        assert out.consecutive is None
        assert (out.word == w).all()

    def test_hamming_min_distance_three(self):
        # the fixture's codebook can always identify a single flip in
        # principle, whatever a particular decoder does with it
        words = sorted(enumerate_codewords(hamming_7_4()))
        arr = np.array(words, dtype=np.int64)
        dists = (arr[:, None, :] != arr[None, :, :]).sum(axis=2)
        off_diag = dists[~np.eye(len(words), dtype=bool)]
        assert off_diag.min() == 3


class TestBpProperties:
    def test_input_validation(self):
        fg = triangle_graph(4)
        with pytest.raises(DimensionError):
            bp_decode(fg, np.full((5, 2), 0.5))
        with pytest.raises(ConfigError):
            bp_decode(fg, np.full((6, 2), 0.4))  # rows sum to 0.8
        with pytest.raises(ConfigError):
            bp_decode(fg, np.full((6, 2), 0.5), iterations=0)
        with pytest.raises(ConfigError):
            bp_decode(fg, np.full((6, 2), 0.5), schedule="flooding")
        with pytest.raises(DimensionError):
            bp_decode(fg, np.full((6, 2), 0.5), observed=[0, 1])
        # priors are a rectangular table of finite numbers in [0, 1]; rows of
        # [1.5, -0.5] sum to 1 but used to reach the first round
        for priors in (
            np.tile([1.5, -0.5], (6, 1)),
            np.tile([np.inf, -np.inf], (6, 1)),
            np.full((6, 2), np.nan),
            [[0.5, 0.5]] * 5 + [[1.0]],
            [["0.5", "x"]] * 6,
        ):
            with pytest.raises(ConfigError):
                bp_decode(fg, priors)
        # a round count is an integer, not a bool or a float
        for iterations in (True, 2.5):
            with pytest.raises(ConfigError):
                bp_decode(fg, np.full((6, 2), 0.5), iterations=iterations)

    def test_inconsistent_hard_priors_raise(self):
        fg = FactorGraph(2, ((0, 1),))
        priors = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InconsistentEvidenceError):
            bp_decode(fg, priors, iterations=2)

    def test_consistent_hard_priors_pass(self):
        fg = FactorGraph(2, ((0, 1),))
        priors = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = bp_decode(fg, priors, iterations=3)
        assert out.word.tolist() == [0, 0]

    def test_beliefs_normalized_and_interior(self):
        g = encode([1, 0, 1, 1, 0, 1])
        g[2] ^= 1
        out = bp_decode(triangle_graph(6), channel_prior(g, NoiseModel(0.08)),
                        iterations=6, observed=g)
        assert np.abs(out.beliefs.sum(axis=1) - 1.0).max() < 1e-9
        assert (out.beliefs > 0).all() and (out.beliefs < 1).all()

    def test_uniform_priors_tie_to_observed(self):
        g = encode([1, 0, 1])
        out = bp_decode(triangle_graph(3), channel_prior(g, NoiseModel(0.5)),
                        iterations=2, observed=g)
        assert (out.word == g).all()

    def test_consecutive_matches_word_slice(self):
        g = apply_iid_flip(encode([0, 1, 1, 0, 1]), NoiseModel(0.2), stream(31))
        out = bp_decode(triangle_graph(5), channel_prior(g, NoiseModel(0.2)),
                        iterations=3, observed=g)
        assert (out.consecutive == out.word[consecutive_indices(5)]).all()

    def test_permutation_equivariance(self):
        n = 5
        rng = stream(77)
        g = rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8)
        perm = np.array([3, 1, 5, 2, 4])  # relabeling of logical indices 1..5
        gp = np.empty_like(g)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                a, b = sorted((perm[i - 1], perm[j - 1]))
                gp[pair_index(a, b, n)] = g[pair_index(i, j, n)]
        model = NoiseModel(0.12)
        out = bp_decode(triangle_graph(n), channel_prior(g, model), iterations=3, observed=g)
        outp = bp_decode(triangle_graph(n), channel_prior(gp, model), iterations=3, observed=gp)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                a, b = sorted((perm[i - 1], perm[j - 1]))
                assert outp.beliefs[pair_index(a, b, n)] == pytest.approx(
                    out.beliefs[pair_index(i, j, n)], abs=1e-9
                )

    def test_batch_matches_single(self):
        n = 6
        rng = stream(404)
        model = NoiseModel(0.15)
        fg = triangle_graph(n)
        words = rng.integers(0, 2, size=(20, n * (n - 1) // 2), dtype=np.uint8)
        p0 = np.where(words == 0, 1 - model.epsilon, model.epsilon)
        for schedule in ("belief", "extrinsic"):
            beliefs, hard, conv, _ = _bp_batch(fg, p0, words, 4, schedule)
            for t in range(words.shape[0]):
                out = bp_decode(fg, channel_prior(words[t], model), iterations=4,
                                schedule=schedule, observed=words[t])
                assert (out.beliefs[:, 0] == beliefs[t]).all()
                assert (out.word == hard[t]).all()
                assert out.converged == bool(conv[t])

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "graph", [triangle_graph(n) for n in range(10, 15)] + [planar_lhz_graph(20)],
        ids=[f"tri{n}" for n in range(10, 15)] + ["planar20"],
    )
    def test_trial_alone_matches_its_batch(self, graph, schedule):
        # A trial's message passing must not depend on the batch it runs in,
        # so a cell's last one-trial chunk rounds like every other chunk.
        rng = stream(31, graph.n_vars, {"belief": 1, "extrinsic": 2}[schedule])
        words = (rng.random((33, graph.n_vars)) < 0.15).astype(np.uint8)
        priors = {"channel": np.where(words == 0, 0.85, 0.15), "uniform": rng.uniform(0.02, 0.98, words.shape)}
        # At 40 rounds a trial alone may settle, and stop, before its batch does.
        for iterations, (kind, p0) in itertools.product((5, 40), priors.items()):
            batch = _bp_batch(graph, p0, words, iterations, schedule)
            for i in range(words.shape[0]):
                alone = _bp_batch(graph, p0[i : i + 1], words[i : i + 1], iterations, schedule)
                for a, b in zip(alone[:3], batch[:3]):
                    assert (a[0] == b[i]).all(), (kind, iterations, i)


def _float64_rounding():
    """Short SHA-256 of np.log, np.log1p, np.exp and np.tanh on fixed float64
    inputs. numpy picks their SIMD kernels by CPU (and version), and the
    kernels differ in the last bit, so frozen belief bytes name the one they
    were taken with."""
    x = np.linspace(-1.0, 1.0, 4099)
    h = hashlib.sha256()
    for f, arg in ((np.log, x * x + 1e-3), (np.log1p, x * 0.999), (np.exp, 40.0 * x), (np.tanh, 20.0 * x)):
        h.update(f(arg).tobytes())
    return h.hexdigest()[:16]


# SHA-256 of the final beliefs' bytes for a fixed 33-trial batch, by the
# _float64_rounding they were taken with (numpy 2.4 on x86-64 with AVX512,
# AVX2 and baseline kernels): the order in which each variable's messages are
# added is part of the output. Triangle n=12, then planar n=20, each belief
# then extrinsic.
_FROZEN_BELIEFS = {
    "af14f494fc307d28": (
        "910bcbd913158e85a297bf922b5b5303e29f1c88520591e10cdae0a6963c47b4",
        "0124bb67e5892e316f96b53536cfee726f40790613ab2f973050222d0a7e3963",
        "086d7e7ef276d33e43cade081d2f8b2b8f7df07f2a04507569122a302b8a1b07",
        "2c36eedc3562b91d5536eac50afc04d69acf29907d9c6044c080c0e3a1831926",
    ),
    "2b69579b0cf6d441": (
        "da73722a72e4379544cbc7406176dd236fe7cd40ac1292d9ee8d04fa479eb1fb",
        "5e5c0adc1e4f124db562d28cf2ffb0c173f82fe052af02a3b9bc8411c4a266c4",
        "fad8838c36169e33802c6427cd28f25146b30632cf7f60d1b4e760ac2f9f0db2",
        "8fe81bab5573c7c71f7269b22b15b9898f03cf67930b5463cd36d0410b50db06",
    ),
    "e474eaed5170b99a": (
        "da73722a72e4379544cbc7406176dd236fe7cd40ac1292d9ee8d04fa479eb1fb",
        "a2224e9de36e290893071dcaacd12f80c4e6100f5053f0b715185d974ad076ca",
        "fad8838c36169e33802c6427cd28f25146b30632cf7f60d1b4e760ac2f9f0db2",
        "ab0b73312b80aa18bfa7644e3406742e4b0bd1dd644be1967c9c30ae1708cf8b",
    ),
}


@pytest.mark.parametrize("case", range(4), ids=["tri12-belief", "tri12-extrinsic", "planar20-belief", "planar20-extrinsic"])
def test_bp_beliefs_frozen(case):
    frozen = _FROZEN_BELIEFS.get(_float64_rounding())
    if frozen is None:
        pytest.skip("float64 log/log1p/exp/tanh round here unlike any machine the hashes were taken on")
    graph = (triangle_graph(12), planar_lhz_graph(20))[case // 2]
    # The words come from the flip draw the hashes were taken with (one float64
    # uniform per bit), not from apply_iid_flip, so they pin message passing only.
    n = num_logical(graph.n_vars)
    rng = stream(808, n)
    true = encode(rng.integers(0, 2, size=(33, n), dtype=np.uint8))
    words = true ^ (rng.random(true.shape) < 0.25)
    p0 = np.where(words == 0, 0.75, 0.25)
    # Two rounds leave the triangle beliefs short of the clamp, where the sum order shows.
    beliefs, _, _, _ = _bp_batch(graph, p0, words, 2, SCHEDULES[case % 2])
    assert hashlib.sha256(beliefs.tobytes()).hexdigest() == frozen[case]


class TestMajority:
    def test_hand_case(self):
        out = majority_vote_decode("000001")
        assert out.consecutive.tolist() == [0, 0, 0]
        assert out.word.tolist() == [0, 0, 0, 0, 0, 0]
        assert out.iterations == 0 and out.converged and out.beliefs is None

    def test_include_direct_is_keyword_only(self):
        with pytest.raises(TypeError):
            majority_vote_decode("000001", True)

    def test_n2_passthrough(self):
        assert majority_vote_decode([1]).consecutive.tolist() == [1]
        assert majority_vote_decode([0]).word.tolist() == [0]

    def test_tie_goes_to_observed(self):
        # n=4 target (1,2): craft votes 1 and 0, so the observed bit decides
        g = np.zeros(6, dtype=np.uint8)
        g[pair_index(1, 3, 4)] = 1  # vote via k=3 reads 1, vote via k=4 reads 0
        g0 = g.copy()
        g1 = g.copy()
        g1[pair_index(1, 2, 4)] = 1
        assert majority_vote_decode(g0).consecutive[0] == 0
        assert majority_vote_decode(g1).consecutive[0] == 1

    @given(bit_words, st.booleans())
    @settings(max_examples=60)
    def test_matches_vote_reference(self, bits, include_direct):
        g = np.array(bits, dtype=np.uint8)
        n = {1: 2, 3: 3, 6: 4, 10: 5, 15: 6, 21: 7}[g.size]
        out = majority_vote_decode(g, include_direct=include_direct)
        for row, i in enumerate(range(1, n)):
            assert out.consecutive[row] == vote_majority(g, n, i, include_direct)

    @given(bit_words)
    @settings(max_examples=40)
    def test_word_is_codeword_consistent_with_consecutive(self, bits):
        g = np.array(bits, dtype=np.uint8)
        n = {1: 2, 3: 3, 6: 4, 10: 5, 15: 6, 21: 7}[g.size]
        out = majority_vote_decode(g)
        if n >= 3:
            assert not syndrome(triangle_graph(n), out.word).any()
        assert (consecutive_bits(out.word) == out.consecutive).all()

    def test_batch_matches_single(self):
        rng = stream(88)
        words = rng.integers(0, 2, size=(50, 10), dtype=np.uint8)
        dec = _majority_batch(words, 5, False)
        for t in range(50):
            assert (dec[t] == majority_vote_decode(words[t]).consecutive).all()

    @pytest.mark.parametrize("include_direct", [False, True])
    @pytest.mark.parametrize("n", [254, 255, 256, 257])
    def test_counts_at_the_counter_width(self, n, include_direct):
        # Votes are counted in uint8 through n = 255, where n - 1 of them (the
        # direct bit included) reach 254, and in uint16 from n = 256. The words:
        # all ones (every vote 0, every direct bit 1, so 0 wins); the codeword
        # of alternating bits, whose every vote counts as a one, with and
        # without its direct bits flipped; and noisy words near a tie.
        rng = np.random.default_rng(n)
        k = num_pairs(n)
        alternating = encode(np.arange(n) % 2)
        flipped = alternating.copy()
        flipped[consecutive_indices(n)] ^= 1
        words = np.vstack([np.ones(k, dtype=np.uint8), alternating, flipped,
                           encode(rng.integers(0, 2, size=(5, n))) ^ (rng.random((5, k)) < 0.45)])
        got = _majority_batch(np.asfortranarray(words), n, include_direct)
        assert got.dtype == np.uint8 and np.array_equal(got, majority_batch_int64(words, n, include_direct))
        assert got[1:3].all() and not got[0].any()


class TestMle:
    def test_n3_exhaustive(self):
        for bits in itertools.product((0, 1), repeat=3):
            g = np.array(bits, dtype=np.uint8)
            out = mle_decode(g, NoiseModel(0.1))
            want = nearest_codeword_bruteforce(g, 3)
            assert (logical_readout(out.word) == want).all()

    def test_tie_is_lexicographic(self):
        # 111 is at distance 1 from the codewords of 001, 010 and 011
        out = mle_decode([1, 1, 1], NoiseModel(0.1))
        assert logical_readout(out.word).tolist() == [0, 0, 1]

    @given(st.integers(0, 2**10 - 1))
    @settings(max_examples=60)
    def test_matches_bruteforce_n5(self, mask):
        g = np.array([(mask >> k) & 1 for k in range(10)], dtype=np.uint8)
        out = mle_decode(g, NoiseModel(0.2))
        want = nearest_codeword_bruteforce(g, 5)
        assert (logical_readout(out.word) == want).all()

    def test_corrects_single_flip(self):
        b = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        g = encode(b)
        for v in range(g.size):
            w = g.copy()
            w[v] ^= 1
            out = mle_decode(w, NoiseModel(0.1))
            assert (out.word == g).all()

    def test_degenerate_at_half(self):
        out = mle_decode([1, 0, 1], NoiseModel(0.5))
        assert out.degenerate
        assert out.word.tolist() == [0, 0, 0]
        assert not mle_decode([1, 0, 1], NoiseModel(0.4)).degenerate

    def test_capacity(self):
        g = encode(np.zeros(25, dtype=np.uint8))
        with pytest.raises(CapacityError):
            mle_decode(g, NoiseModel(0.1))
        # at epsilon 1/2 nothing is searched, so no size is refused
        assert mle_decode(g, NoiseModel(0.5)).degenerate

    def test_outcome_fields(self):
        out = mle_decode([1, 1, 0], NoiseModel(0.1))
        assert (out.consecutive == consecutive_bits(out.word)).all()
        assert out.iterations == 0 and out.converged and out.beliefs is None

    def test_batch_matches_single(self):
        rng = stream(123)
        words = rng.integers(0, 2, size=(30, 15), dtype=np.uint8)
        got = _mle_batch(words, 6)
        for t in range(30):
            single = mle_decode(words[t], NoiseModel(0.3))
            assert (encode(got[t]) == single.word).all()


def _noisy_words(n, eps, trials, seed):
    """Codewords of random logical words, through the i.i.d. flip channel."""
    rng = stream(seed, n)
    return apply_iid_flip(encode(rng.integers(0, 2, size=(trials, n), dtype=np.uint8)), NoiseModel(eps), rng)


def _tied_words(n):
    """Uniform random words whose nearest codeword is not unique, with the
    number of candidates tied at the minimum distance for each."""
    cands = encode(np.array([(0,) + b for b in itertools.product((0, 1), repeat=n - 1)], dtype=np.uint8))
    words = stream(3, n).integers(0, 2, size=(200, cands.shape[1]), dtype=np.uint8)
    dist = (words[:, None, :] != cands[None, :, :]).sum(axis=2)
    ties = (dist == dist.min(axis=1, keepdims=True)).sum(axis=1)
    return words[ties >= 2], ties[ties >= 2]


def _constant_words(n):
    """The all-zero word and the all-one word, which ties many candidates."""
    return np.array([[0] * (n * (n - 1) // 2), [1] * (n * (n - 1) // 2)], dtype=np.uint8)


class TestMleAgainstDistance:
    """The matrix-product search returns the distance-counting oracle's words
    exactly, ties included."""

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("n", range(3, 17))
    def test_noisy_words(self, n, eps):
        words = _noisy_words(n, eps, 40, seed=17)
        assert np.array_equal(_mle_batch(words, n), mle_batch_distance(words, n))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_all_zero_and_all_one(self, n):
        words = _constant_words(n)
        got = _mle_batch(words, n)
        assert np.array_equal(got, mle_batch_distance(words, n))
        assert not got[0].any()

    @pytest.mark.parametrize("n", range(3, 13))
    def test_tied_words(self, n):
        words, ties = _tied_words(n)
        assert len(words) >= 20 and ties.max() >= 3
        assert np.array_equal(_mle_batch(words, n), mle_batch_distance(words, n))

    # (n, score budget in bytes, trials and high rows per block); the id names
    # the budget in float32 scores. n = 8 has 8 high rows of 16 candidates, n = 11
    # 32 of 32, n = 12 32 of 64. A budget of one byte gives the floor of one
    # trial and one high row.
    @pytest.mark.parametrize(
        "n,budget,t_rows,a_rows",
        [pytest.param(n, 4 * block, t_rows, a_rows, id=f"{n}-{block}") for n, block, t_rows, a_rows in
         [(8, 64, 1, 4), (8, 100, 1, 6), (8, 1000, 7, 8), (11, 64, 1, 2), (11, 100, 1, 3), (11, 1000, 1, 31),
          (11, 5000, 4, 32), (12, 1000, 1, 15)]]
        + [pytest.param(n, 1, 1, 1, id=f"{n}-floor") for n in (8, 11, 12)],
    )
    def test_blocks_smaller_than_the_search(self, monkeypatch, n, budget, t_rows, a_rows):
        words = np.concatenate([_noisy_words(n, 0.3, 30, seed=5), _tied_words(n)[0], _constant_words(n)])
        want = mle_batch_distance(words, n)
        rows, cols = 1 << ((n + 1) // 2 - 1), 1 << (n // 2)
        blocks = []

        class Spy:
            """numpy, with the shape of each (trials, high rows, low columns) score
            block, the out= of the batched np.matmul, recorded."""

            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kwargs):
                blocks.append(kwargs["out"].shape)
                return np.matmul(*args, **kwargs)

        monkeypatch.setattr(lhzcode.decoders, "np", Spy())
        monkeypatch.setattr(lhzcode.decoders, "_MLE_BLOCK_BYTES", budget)
        assert np.array_equal(_mle_batch(words, n), want)
        # trial blocks outside, high-row blocks inside, every candidate of every trial once
        t = len(words)
        expected = [(min(t_rows, t - t0), min(a_rows, rows - a0), cols)
                    for t0 in range(0, t, t_rows) for a0 in range(0, rows, a_rows)]
        assert len(blocks) > 1 and blocks == expected
        assert sum(r * a * c for r, a, c in blocks) == t << (n - 1)
        assert all(4 * r * a * c <= max(budget, 4 * cols) for r, a, c in blocks)

    @pytest.mark.parametrize("trials", [1, 1000])
    def test_batch_sizes(self, trials):
        words = _noisy_words(12, 0.2, trials, seed=9)
        assert np.array_equal(_mle_batch(words, 12), mle_batch_distance(words, 12))


@pytest.mark.parametrize("trials", [1, 7, 300])
@pytest.mark.parametrize("kind", ["tied", "constant", "noisy"])
@pytest.mark.parametrize("n", range(2, 14))
def test_split_search_at_every_size(n, kind, trials):
    # n = 2 and 3 leave one part of the split a single spin. At n = 2 every
    # word is a codeword, so no word ties: its "tied" pool is both words.
    if kind == "noisy":
        words = _noisy_words(n, 0.3, trials, seed=n)
    else:
        pool = _constant_words(n) if kind == "constant" or n == 2 else _tied_words(n)[0]
        words = np.resize(pool, (trials, pool.shape[1]))
    assert np.array_equal(_mle_batch(words, n), mle_batch_distance(words, n))


def test_search_memory_stays_within_its_blocks():
    # Every score block is held to _MLE_BLOCK_BYTES. A kernel that built the
    # cross terms of the whole batch at once, (1024, 256, 9) float32 or 9.4 MB,
    # next to one score block, would pass the bound.
    n = 18
    words = _noisy_words(n, 0.1, 1024, seed=4)
    tracemalloc.start()
    try:
        _mle_batch(words, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * lhzcode.decoders._MLE_BLOCK_BYTES


def test_blas_threads_do_not_change_the_words(tmp_path):
    # One fixed batch, decoded in two fresh processes whose BLAS runs on one
    # and on two threads; the scores are exact integers, so both match.
    n = 14
    words = _noisy_words(n, 0.3, 300, seed=21)
    np.save(tmp_path / "words.npy", words)
    want = hashlib.sha256(mle_batch_distance(words, n).tobytes()).hexdigest()
    script = ("import hashlib, sys; import numpy as np; from lhzcode.decoders import _mle_batch; "
              "got = _mle_batch(np.load(sys.argv[1]), int(sys.argv[2])); "
              "print(hashlib.sha256(got.tobytes()).hexdigest())")
    src = str(Path(lhzcode.decoders.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "words.npy"), str(n)],
                             env=env, capture_output=True, text=True, timeout=300, check=True)
        assert out.stdout.strip() == want, threads
