import itertools

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
    consecutive_bits,
    consecutive_indices,
    encode,
    enumerate_codewords,
    epsilon_star,
    hamming_7_4,
    logical_readout,
    majority_vote_decode,
    mle_decode,
    num_logical,
    pair_index,
    stream,
    syndrome,
    triangle_graph,
    planar_lhz_graph,
)
from lhzcode.decoders import SCHEDULES, _bp_batch, _majority_batch, _mle_batch

from reference import (
    exact_marginals,
    naive_belief_bp,
    naive_extrinsic_bp,
    nearest_codeword_bruteforce,
    slot_major_bp_batch,
    vote_majority,
)

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


def _codeword(graph, rng):
    """A random codeword: encoded logical bits on the pairwise-parity graphs,
    one of the enumerated codewords on the small fixtures."""
    if graph in (hamming_7_4(), _MIXED):
        words = sorted(enumerate_codewords(graph))
        return np.array(words[rng.integers(len(words))], dtype=np.uint8)
    return encode(rng.integers(0, 2, num_logical(graph.n_vars), dtype=np.uint8))


class TestBpAgainstSlotMajor:
    """The variable-major engine against the slot-major one it replaced,
    bit for bit: every graph here has checks of weight <= 4."""

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "graph",
        [triangle_graph(n) for n in range(3, 13)]
        + [planar_lhz_graph(n) for n in range(3, 21)]
        + [hamming_7_4(), _MIXED],
        ids=[f"tri{n}" for n in range(3, 13)] + [f"planar{n}" for n in range(3, 21)] + ["hamming", "mixed"],
    )
    def test_bit_identical(self, graph, schedule):
        rng = stream(2026, graph.n_vars, graph.n_checks, {"belief": 1, "extrinsic": 2}[schedule])
        t = 8
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
                runs = []
                for engine in (_bp_batch, slot_major_bp_batch):
                    try:
                        runs.append(engine(graph, p0, observed, iterations, schedule))
                    except InconsistentEvidenceError:
                        runs.append(None)
                new, old = runs
                assert (new is None) == (old is None), (kind, iterations)
                for a, b in zip(new or (), old or ()):
                    assert (a == b).all(), (kind, iterations)


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
            beliefs, hard, conv = _bp_batch(fg, p0, words, 4, schedule)
            for t in range(words.shape[0]):
                out = bp_decode(fg, channel_prior(words[t], model), iterations=4,
                                schedule=schedule, observed=words[t])
                assert np.abs(out.beliefs[:, 0] - beliefs[t]).max() < 1e-12
                assert (out.word == hard[t]).all()
                assert out.converged == bool(conv[t])


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
