import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lhzcode.decoders import SCHEDULES, _bp_layout
from lhzcode.sim import graph_for
from reference import naive_belief_bp, naive_extrinsic_bp

from lhzcode import (
    CapacityError,
    ConfigError,
    DimensionError,
    FactorGraph,
    bp_decode,
    encode,
    enumerate_codewords,
    gf2_rank,
    hamming_7_4,
    num_pairs,
    planar_lhz_graph,
    syndrome,
    triangle_graph,
)

def _degrees(graph):
    """Number of checks touching each variable."""
    return np.bincount([v for c in graph.checks for v in c], minlength=graph.n_vars)


bit_words = st.integers(3, 8).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
)


class TestFactorGraph:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FactorGraph(3, ((0, 0),))
        with pytest.raises(ConfigError):
            FactorGraph(3, ((0, 3),))
        with pytest.raises(ConfigError):
            FactorGraph(-1, ())

    def test_counts_and_degrees(self):
        fg = FactorGraph(4, ((0, 1), (1, 2, 3)))
        assert fg.n_checks == 2
        assert _degrees(fg).tolist() == [1, 2, 1, 1]

    def test_dense(self):
        # the syndrome is the dense check matrix times the word, mod 2
        fg = FactorGraph(4, ((0, 2), (1, 2, 3)))
        h = np.zeros((fg.n_checks, fg.n_vars), dtype=np.int64)
        for r, c in enumerate(fg.checks):
            h[r, list(c)] = 1
        for m in range(2**fg.n_vars):
            w = np.array([(m >> v) & 1 for v in range(fg.n_vars)], dtype=np.uint8)
            assert syndrome(fg, w).tolist() == (h @ w % 2).tolist()

    def test_adjacency(self):
        # [j, k, v]: partner j of variable v in its k-th check, in check
        # order. Checks (0,1) and (0,3) are padded to weight 3 with the bias-1
        # index (variable 4, edge 8); variable 2 sits in one check, so its
        # second slot is the bias-0 index (variable 5, edge 9) throughout.
        # Edges are k*4 + v: slot 0 is 0,1,2,3 and slot 1 is 4,5,(6),7.
        fg = FactorGraph(4, ((0, 1), (1, 2, 3), (0, 3)))
        layout = _bp_layout(fg)
        assert layout["belief"].tolist() == [
            [[4, 4, 3, 1], [4, 3, 5, 4]],
            [[1, 0, 1, 2], [3, 2, 5, 0]],
        ]
        assert layout["extrinsic"].tolist() == [
            [[8, 8, 3, 5], [8, 3, 9, 8]],
            [[1, 0, 5, 2], [7, 2, 9, 4]],
        ]
        # bias 1 leaves the weight-2 checks exact, bias 0 sends message 0
        p = np.array([0.9, 0.3, 0.65, 0.2])
        priors = np.stack([p, 1 - p], axis=1)
        for schedule, ref in zip(SCHEDULES, (naive_belief_bp, naive_extrinsic_bp)):
            out = bp_decode(fg, priors, iterations=3, schedule=schedule)
            assert np.abs(out.beliefs - ref(fg, priors, 3)).max() < 1e-12

    @pytest.mark.parametrize(
        "graph",
        [triangle_graph(7), planar_lhz_graph(8), hamming_7_4(), FactorGraph(5, ((0, 1), (1, 2, 3))), FactorGraph(3, ())],
        ids=["triangle7", "planar8", "hamming", "isolated", "no-checks"],
    )
    def test_layout_round_trip(self, graph):
        # Slot k of variable v lists the other variables of v's k-th check
        # (belief), or their edge ids k'*n_vars + u, u's k'-th check being the
        # same one (extrinsic); each table pads the rest with its bias-1 index.
        # Slots at or past deg(v) hold only the bias-0 index.
        layout = _bp_layout(graph)
        nv = graph.n_vars
        in_checks = [[ci for ci, c in enumerate(graph.checks) if v in c] for v in range(nv)]
        d_max = max(1, max(map(len, in_checks)))
        w = max(2, max(map(len, graph.checks), default=0))
        edge = {(u, ci): k * nv + u for u in range(nv) for k, ci in enumerate(in_checks[u])}
        for schedule, n_src in (("belief", nv), ("extrinsic", d_max * nv)):
            table = layout[schedule]
            assert table.shape == (w - 1, d_max, nv) and not table.flags.writeable
            for v, k in itertools.product(range(nv), range(d_max)):
                got = sorted(table[:, k, v].tolist())
                if k >= len(in_checks[v]):
                    assert got == [n_src + 1] * (w - 1), (schedule, v, k)
                    continue
                ci = in_checks[v][k]
                others = [u for u in graph.checks[ci] if u != v]
                want = others if schedule == "belief" else [edge[u, ci] for u in others]
                assert got == sorted(want + [n_src] * (w - 1 - len(others))), (schedule, v, k)

    def test_hashable(self):
        assert triangle_graph(4) == triangle_graph(4)
        assert hash(hamming_7_4()) == hash(hamming_7_4())

    def test_equal_graphs_share_one_layout(self):
        # Built separately, from fresh tuples: equal graphs hash equal, so the
        # message-passing layout is built once for both.
        a, b = (FactorGraph(10, tuple(tuple(c) for c in reversed(triangle_graph(5).checks))) for _ in range(2))
        assert a is not b and a.checks is not b.checks
        assert a == b and hash(a) == hash(b)
        size = _bp_layout.cache_info().currsize
        assert _bp_layout(a) is _bp_layout(b)
        assert _bp_layout.cache_info().currsize == size + 1
        assert FactorGraph(10, a.checks[1:]) != a


class TestHamming:
    def test_rows(self):
        rows = ["1110100", "0111010", "0011101"]
        want = tuple(tuple(v for v, bit in enumerate(r) if bit == "1") for r in rows)
        assert hamming_7_4().checks == want

    def test_rank_and_size(self):
        assert gf2_rank(hamming_7_4()) == 3
        words = enumerate_codewords(hamming_7_4())
        assert len(words) == 16
        assert (1,) * 7 in words
        assert (0,) * 7 in words
        for w in words:
            assert not syndrome(hamming_7_4(), list(w)).any()


class TestTriangle:
    def test_n4_frozen(self):
        assert triangle_graph(4).checks == ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_counts(self, n):
        fg = triangle_graph(n)
        assert fg.n_vars == num_pairs(n)
        assert fg.n_checks == math.comb(n, 3)
        assert (_degrees(fg) == n - 2).all()
        assert all(len(c) == 3 for c in fg.checks)

    def test_degenerate(self):
        # n = 2 has one pair bit and nothing to check; n = 1 has no pair at all
        assert triangle_graph(2) == graph_for("triangle", 2) == FactorGraph(1, ())
        for build in (triangle_graph, lambda n: graph_for("triangle", n)):
            with pytest.raises(ConfigError):
                build(1)

    @given(bit_words)
    def test_codewords_satisfy(self, bits):
        b = np.array(bits, dtype=np.uint8)
        assert not syndrome(triangle_graph(b.size), encode(b)).any()

    @given(bit_words, st.data())
    def test_single_flip_violates_degree_many(self, bits, data):
        b = np.array(bits, dtype=np.uint8)
        fg = triangle_graph(b.size)
        g = encode(b)
        v = data.draw(st.integers(0, g.size - 1))
        g[v] ^= 1
        assert int(syndrome(fg, g).sum()) == b.size - 2


class TestPlanar:
    def test_n4_frozen(self):
        assert planar_lhz_graph(4).checks == ((0, 1, 3), (3, 4, 5), (1, 2, 3, 4))

    def test_n5_layout(self):
        fg = planar_lhz_graph(5)
        assert fg.n_checks == 6
        # three boundary triangles first, then row-major plaquettes
        assert fg.checks[:3] == ((0, 1, 4), (4, 5, 7), (7, 8, 9))
        assert [len(c) for c in fg.checks] == [3, 3, 3, 4, 4, 4]

    @pytest.mark.parametrize("n", range(3, 10))
    def test_counts(self, n):
        fg = planar_lhz_graph(n)
        assert fg.n_vars == num_pairs(n)
        assert fg.n_checks == num_pairs(n) - n + 1
        assert sum(1 for c in fg.checks if len(c) == 3) == n - 2

    def test_degenerate(self):
        # n = 2 has one pair bit and nothing to check; n = 1 has no pair at all
        assert planar_lhz_graph(2) == graph_for("planar", 2) == FactorGraph(1, ())
        for build in (planar_lhz_graph, lambda n: graph_for("planar", n)):
            with pytest.raises(ConfigError):
                build(1)

    @given(bit_words)
    def test_codewords_satisfy(self, bits):
        b = np.array(bits, dtype=np.uint8)
        assert not syndrome(planar_lhz_graph(b.size), encode(b)).any()


class TestGf2:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_ranks(self, n):
        want = num_pairs(n) - n + 1
        assert gf2_rank(triangle_graph(n)) == want
        assert gf2_rank(planar_lhz_graph(n)) == want

    def test_rank_small(self):
        assert gf2_rank(FactorGraph(3, ())) == 0
        assert gf2_rank(FactorGraph(2, ((0, 1), (0, 1)))) == 1

    @pytest.mark.parametrize("n", range(3, 8))
    def test_nullspaces_equal_code_image(self, n):
        image = {tuple(encode(b).tolist()) for b in _all_logical(n)}
        assert len(image) == 2 ** (n - 1)
        assert enumerate_codewords(triangle_graph(n)) == image
        assert enumerate_codewords(planar_lhz_graph(n)) == image

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_codewords(triangle_graph(8))  # 28 variables
        assert len(enumerate_codewords(triangle_graph(8), max_vars=28)) == 2**7

    def test_syndrome_length_check(self):
        with pytest.raises(DimensionError):
            syndrome(triangle_graph(4), [0, 1, 0])


def _all_logical(n):
    for m in range(2**n):
        yield np.array([(m >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)
