import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lhzcode.factor_graph
from lhzcode.codes import MAX_N
from lhzcode.decoders import SCHEDULES, _bp_batch, _bp_layout, _bp_rows, _vote_index_arrays
from lhzcode.sim import graph_for
from reference import enumerate_codewords, gf2_rank, hamming_7_4, naive_belief_bp, naive_extrinsic_bp, syndrome

from lhzcode import (
    CapacityError,
    ConfigError,
    FactorGraph,
    bp_decode,
    encode,
    num_pairs,
    pair_index,
    planar_lhz_graph,
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

    @pytest.mark.parametrize("entry", [True, np.True_, 1.0, np.float64(1.0), "1", None])
    def test_entry_must_be_an_integer(self, entry):
        # np.fromiter would read each of these as 1, so no array path may let them through
        with pytest.raises(ConfigError):
            FactorGraph(3, ((0, entry),))

    @pytest.mark.parametrize("entry", [15, -1, True, np.True_, 1.0, "1", None, 2**64, np.uint64(2**64 - 1), "twice"])
    def test_bad_entry_deep_in_a_graph(self, entry):
        # One bad entry in the middle of the last check of a 20-check graph on
        # 15 variables: the array pass must see it wherever it sits, and the
        # message names its rule.
        checks = triangle_graph(6).checks
        twice = isinstance(entry, str) and entry == "twice"
        first, _, last = checks[-1]
        bad = (first, first if twice else entry, last)
        with pytest.raises(ConfigError, match="twice" if twice else "check variable"):
            FactorGraph(15, checks[:-1] + (bad,))

    def test_a_check_that_is_not_a_tuple(self):
        with pytest.raises(ConfigError, match="check must be a tuple"):
            FactorGraph(15, triangle_graph(6).checks[:-1] + ([0, 1, 2],))

    def test_entries_past_int32(self):
        # Checks are held as int32 arrays: the largest int32 index is a
        # variable like any other, and one past it is refused as too large.
        top = 2**31 - 1
        assert FactorGraph(top + 1, ((top - 1, top),)).checks == ((top - 1, top),)
        for big in (top + 1, 2**64):
            with pytest.raises(CapacityError, match="int32"):
                FactorGraph(big + 2, ((0, big),))
        with pytest.raises(ConfigError, match="twice"):
            FactorGraph(top + 1, ((top, top),))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64, np.uint64])
    def test_numpy_integer_entries(self, dtype):
        checks = ((0, 1, 2), (1, 2))
        fg = FactorGraph(3, tuple(tuple(dtype(v) for v in c) for c in checks))
        assert fg == FactorGraph(3, checks) and hash(fg) == hash(FactorGraph(3, checks))

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
        assert _bp_layout(fg, "belief").tolist() == [
            [[4, 4, 3, 1], [4, 3, 5, 4]],
            [[1, 0, 1, 2], [3, 2, 5, 0]],
        ]
        assert _bp_layout(fg, "extrinsic").tolist() == [
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
        nv = graph.n_vars
        in_checks = [[ci for ci, c in enumerate(graph.checks) if v in c] for v in range(nv)]
        d_max = max(1, max(map(len, in_checks)))
        w = max(2, max(map(len, graph.checks), default=0))
        edge = {(u, ci): k * nv + u for u in range(nv) for k, ci in enumerate(in_checks[u])}
        for schedule, n_src in (("belief", nv), ("extrinsic", d_max * nv)):
            table = _bp_layout(graph, schedule)
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

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_one_table_per_schedule(self, monkeypatch, schedule):
        # On a graph not seen before, sizing a batch and decoding it ask only
        # for the cell's schedule, and the cache builds that one table once.
        graph = FactorGraph(7, ((0, 1, 2), (2, 3, 4), (4, 5, 6, 0)))
        layout, asked = lhzcode.decoders._bp_layout, []

        def spy(g, s):
            asked.append(s)
            return layout(g, s)

        monkeypatch.setattr(lhzcode.decoders, "_bp_layout", spy)
        misses = layout.cache_info().misses
        rows = _bp_rows(graph, schedule)
        p0 = np.full((rows, graph.n_vars), 0.8)
        _bp_batch(graph, p0, np.zeros(p0.shape, dtype=np.uint8), 3, schedule)
        assert asked == [schedule, schedule]
        assert layout.cache_info().misses == misses + 1
        table = layout(graph, schedule)
        assert isinstance(table, np.ndarray) and table.shape == (3, 2, 7)

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
        assert _bp_layout(a, "belief") is _bp_layout(b, "belief")
        assert _bp_layout.cache_info().currsize == size + 1
        assert FactorGraph(10, a.checks[1:]) != a

    @pytest.mark.parametrize("build", [triangle_graph, planar_lhz_graph])
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_tuples_make_the_built_in_graph(self, build, n):
        # The built-in graphs go through the array path, tuples through the
        # public constructor: the same checks give equal graphs and hashes.
        graph = build(n)
        from_tuples = FactorGraph(graph.n_vars, graph.checks)
        assert from_tuples == graph and hash(from_tuples) == hash(graph)
        assert from_tuples.entries.tolist() == graph.entries.tolist()
        assert from_tuples.offsets.tolist() == graph.offsets.tolist()

    def test_different_checks_are_unequal(self):
        graph = triangle_graph(5)
        assert FactorGraph(graph.n_vars + 1, graph.checks) != graph
        assert FactorGraph(graph.n_vars, graph.checks[::-1]) != graph
        assert FactorGraph(3, ((0, 1), (2,))) != FactorGraph(3, ((0,), (1, 2)))  # same entries, other offsets
        assert FactorGraph(3, ((0, 1),)) != FactorGraph(3, ((1, 0),))
        assert graph != graph.checks and graph != "graph"

    @pytest.mark.parametrize(
        "checks", [(), ((0,),), ((0, 1), (), (3, 2, 1)), ((1, 2, 3, 0),) * 3], ids=["none", "one", "empty", "repeated"]
    )
    def test_checks_round_trip(self, checks):
        fg = FactorGraph(4, checks)
        assert fg.checks == checks and fg.n_checks == len(checks)
        assert fg.checks is fg.checks  # built once
        assert all(type(v) is int for c in fg.checks for v in c)

    def test_arrays_are_read_only(self):
        for fg in (FactorGraph(4, ((0, 1), (1, 2, 3))), triangle_graph(6), planar_lhz_graph(6)):
            for arr in (fg.entries, fg.offsets):
                assert arr.dtype == np.int32 and not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1
            with pytest.raises(AttributeError):
                fg.n_vars = 3

    def test_array_path_validation(self):
        # The built-in graphs' array constructor checks dtypes, ranges and repeats itself.
        def build(*rows, dtype=np.int32):
            return lhzcode.factor_graph._stacked(4, *(np.array(r, dtype=dtype) for r in rows))

        assert build([[0, 1], [2, 3]], [[0, 1, 3]]).checks == ((0, 1), (2, 3), (0, 1, 3))
        with pytest.raises(ConfigError, match="int32"):
            build([[0, 1]], dtype=np.int64)
        for bad in (-1, 4):
            with pytest.raises(ConfigError, match="check variable"):
                build([[0, bad]])
        with pytest.raises(ConfigError, match=r"check \(2, 3, 2\) touches a variable twice"):
            build([[0, 1]], [[2, 3, 2], [3, 1, 3]])


class TestHamming:
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

    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_definition(self, n):
        want = tuple((pair_index(i, j, n), pair_index(i, k, n), pair_index(j, k, n))
                     for i, j, k in itertools.combinations(range(1, n + 1), 3))
        assert triangle_graph(n).checks == want

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

    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_definition(self, n):
        boundary = [(pair_index(i, i + 1, n), pair_index(i, i + 2, n), pair_index(i + 1, i + 2, n))
                    for i in range(1, n - 1)]
        plaquettes = [(pair_index(i, j, n), pair_index(i, j + 1, n), pair_index(i + 1, j, n),
                       pair_index(i + 1, j + 1, n)) for i in range(1, n - 1) for j in range(i + 2, n)]
        assert planar_lhz_graph(n).checks == tuple(boundary + plaquettes)

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


@pytest.mark.parametrize("n", range(3, 61))
def test_vote_tables_match_definition(n):
    # vote k for target (i, i+1) reads the pairs {i, k} and {i+1, k}, k ascending
    for shift, table in enumerate(_vote_index_arrays(n)):
        want = [[pair_index(min(i + shift, k), max(i + shift, k), n) for k in range(1, n + 1) if k not in (i, i + 1)]
                for i in range(1, n)]
        assert table.tolist() == want
        assert table.dtype == np.intp and table.shape == (n - 1, n - 2)
        assert table.flags.c_contiguous and not table.flags.writeable


@pytest.mark.parametrize("build", [triangle_graph, planar_lhz_graph])
class TestEdgeLimit:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_limit_counts_the_edges_built(self, monkeypatch, build, n):
        # the closed-form count the limit reads is the graph's own edge count
        edges = sum(map(len, build(n).checks))
        monkeypatch.setattr(lhzcode.factor_graph, "_MAX_EDGES", edges)
        assert build(n).n_vars == num_pairs(n)
        monkeypatch.setattr(lhzcode.factor_graph, "_MAX_EDGES", edges - 1)
        with pytest.raises(CapacityError, match=f"graph at n={n} has {edges} edges"):
            build(n)

    def test_largest_graphs_pass(self, monkeypatch, build):
        # triangle n = 300 (13.4M edges) and n = 323 are within the limit; the
        # cached constructors are stubbed, so nothing this size gets built here
        monkeypatch.setattr(lhzcode.factor_graph, "_triangle_graph", lambda n: n)
        monkeypatch.setattr(lhzcode.factor_graph, "_planar_lhz_graph", lambda n: n)
        largest = 323 if build is triangle_graph else 2898
        assert build(300) == 300 and build(largest) == largest
        with pytest.raises(CapacityError):
            build(largest + 1)

    @pytest.mark.parametrize("n", [3000, 10**6, MAX_N])
    def test_refused_at_once(self, build, n):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"n={n} has"):
            build(n)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n", [1000.0, True, "1000", None, 1, MAX_N + 1, 10**30])
    def test_bad_n_is_still_a_config_error(self, build, n):
        with pytest.raises(ConfigError):
            build(n)


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



def _all_logical(n):
    for m in range(2**n):
        yield np.array([(m >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)
