import gc
import math
import os
import re
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lhzcode.sim
from lhzcode import (
    CellError,
    ConfigError,
    FactorGraph,
    LhzError,
    NoiseModel,
    SimConfig,
    apply_iid_flip,
    as_bits,
    bp_decode,
    channel_prior,
    SimResult,
    chernoff_bound,
    consecutive_indices,
    encode,
    epsilon_star,
    majority_vote_decode,
    mle_decode,
    num_pairs,
    pair_table,
    planar_lhz_graph,
    run_cell,
    run_sweep,
    stream,
    triangle_graph,
    union_bound,
)
from lhzcode.decoders import _BLOCK_BYTES, SCHEDULES, _bp_rows
from lhzcode.sim import DECODER_IDS, _draw_rows, _draw_words, _streams, graph_for

from reference import exact_majority_pair_fail, pair_index, syndrome


class TestBounds:
    def test_frozen_values(self):
        assert chernoff_bound(20, 0.1) == pytest.approx(0.025062063262558797, rel=1e-12)
        assert union_bound(40, 0.1) == pytest.approx(0.016263395783875038, rel=1e-12)
        # vacuous values are reported, not clipped
        assert union_bound(10, 0.1) == pytest.approx(1.7486159290693943, rel=1e-12)

    def test_endpoints(self):
        assert chernoff_bound(2, 0.3) == 1.0
        assert union_bound(2, 0.3) == 1.0
        assert chernoff_bound(30, 0.5) == 1.0  # eps* = 1/2, exponent vanishes

    @given(st.integers(2, 60), st.floats(0.0, 0.5))
    def test_formula(self, n, eps):
        es = epsilon_star(eps)
        want = math.exp(-2.0 * (n - 2) * (0.5 - es) ** 2)
        assert chernoff_bound(n, eps) == pytest.approx(want, rel=1e-12)
        assert union_bound(n, eps) == pytest.approx((n - 1) * want, rel=1e-12)

    def test_decreasing_in_n(self):
        for eps in (0.05, 0.2, 0.45):
            vals = [chernoff_bound(n, eps) for n in range(3, 30)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            chernoff_bound(1, 0.1)
        with pytest.raises(ValueError):
            chernoff_bound(10, 0.6)


def _bad_cell(case, **bad):
    """A run_cell call on an otherwise valid bp cell, with some arguments replaced."""
    kw = {"n": 4, "epsilon": 0.1, "decoder": "bp", "trials": 5, "seed": 1, **bad}
    return pytest.param(lambda: run_cell(**kw), id=f"run_cell-{case}")


class TestSimConfig:
    def test_defaults_valid(self):
        SimConfig(n_values=(4,), eps_values=(0.1,))

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_values": ()},
            {"n_values": (1,)},
            {"eps_values": ()},
            {"eps_values": (0.6,)},
            {"decoders": ("turbo",)},
            {"decoders": ()},
            {"trials": 0},
            {"seed": -1},
            {"graph": "full"},
            {"bp_iterations": 0},
            {"schedule": "flooding"},
            # counts, sizes and keys are integers: bool and float are refused
            {"n_values": (4.0,)},
            {"n_values": (True,)},
            {"trials": 5.5},
            {"trials": True},
            {"seed": 1.0},
            {"seed": False},
            {"bp_iterations": 2.5},
            # more trials than a (trials, k) word array can be shaped for
            {"trials": 99999999999999999999},
            # run_cell checks its arguments through a one-cell SimConfig, and
            # graph_for knows only the kinds in its table
            _bad_cell("graph", graph="foo"),
            _bad_cell("iterations", bp_iterations=0),
            _bad_cell("trials", trials=0),
            _bad_cell("decoder", decoder="turbo"),
            _bad_cell("schedule", decoder="majority", schedule="nope"),
            _bad_cell("seed", seed=-1),
            _bad_cell("eps_index", eps_index=-1),
            _bad_cell("trials-float", trials=5.5),
            _bad_cell("trials-bool", trials=True),
            _bad_cell("eps_index-float", eps_index=0.5),
            _bad_cell("eps_index-bool", eps_index=True),
            pytest.param(lambda: graph_for("foo", 2), id="graph_for-n2"),
            pytest.param(lambda: graph_for("foo", 5), id="graph_for-n5"),
            # the one n >= 2 rule, shared by the bounds and the graph table
            pytest.param(lambda: chernoff_bound(1, 0.1), id="chernoff-n1"),
            pytest.param(lambda: graph_for("triangle", 1), id="graph_for-triangle-n1"),
            # the library entry points below the sweep reject with an LhzError too
            pytest.param(lambda: bp_decode(triangle_graph(4), np.full((6, 2), 0.4)), id="bp_decode-prior-sum"),
            pytest.param(lambda: as_bits("012"), id="as_bits-string"),
            pytest.param(lambda: as_bits([0, 2]), id="as_bits-values"),
            pytest.param(lambda: FactorGraph(3, ((0, 0),)), id="factor_graph-repeat"),
            pytest.param(lambda: FactorGraph(3, ((0, 3),)), id="factor_graph-range"),
            pytest.param(lambda: FactorGraph(-1, ()), id="factor_graph-negative"),
            pytest.param(lambda: FactorGraph(3.5, ()), id="factor_graph-float-size"),
            pytest.param(lambda: FactorGraph(3, ((0, 1.5),)), id="factor_graph-float-variable"),
            pytest.param(lambda: FactorGraph(3, [[0, 1]]), id="factor_graph-list"),
            # the test-only pair index checks its counts with the library's check_count
            pytest.param(lambda: pair_index(1.5, 2, 3), id="pair_index-float"),
            # the sweep axes are tuples, as annotated, so a config can be hashed
            {"n_values": 3},
            {"n_values": [4]},
            {"eps_values": [0.1]},
            {"decoders": ["bp"]},
            {"decoders": (["bp"],)},
            {"graph": ["triangle"]},
            # epsilon is a real number, not a bool or a string
            {"eps_values": ("0.1",)},
            {"eps_values": (False,)},
            {"eps_values": (float("nan"),)},
            _bad_cell("epsilon-string", epsilon="0.1"),
            # ragged bits are refused by the one bit coercion every entry point uses
            pytest.param(lambda: encode([[0, 1], [1]]), id="encode-ragged"),
            pytest.param(lambda: majority_vote_decode([[0, 1], [1]]), id="majority-ragged"),
            pytest.param(lambda: mle_decode([[0, 1], [1]], NoiseModel(0.1)), id="mle-ragged"),
            # an n whose k = n(n-1)/2 overflows an index is refused at once
            {"n_values": (10**30,)},
            _bad_cell("n-huge", n=10**30),
            pytest.param(lambda: pair_table(10**30), id="pair_table-huge"),
            pytest.param(lambda: consecutive_indices(10**30), id="consecutive_indices-huge"),
            pytest.param(lambda: planar_lhz_graph(10**30), id="planar-huge"),
            pytest.param(lambda: graph_for("triangle", 10**30), id="graph_for-huge"),
            # parameters typed as a model, generator or config take only that type
            pytest.param(lambda: channel_prior([0, 1, 1], 0.1), id="channel_prior-model"),
            pytest.param(lambda: mle_decode([0, 1, 1], 0.1), id="mle_decode-model"),
            pytest.param(lambda: apply_iid_flip([0, 1, 1], NoiseModel(0.1), 5), id="apply_iid_flip-rng"),
            pytest.param(lambda: run_sweep("x"), id="run_sweep-config"),
            pytest.param(lambda: run_sweep(SimConfig((4,), (0.1,)), threads=1.5), id="run_sweep-threads-float"),
            pytest.param(lambda: run_sweep(SimConfig((4,), (0.1,)), threads=True), id="run_sweep-threads-bool"),
            pytest.param(lambda: stream(-1, 2), id="stream-negative"),
            pytest.param(lambda: stream(1, 2.5), id="stream-float"),
            # the bounds take n up to the array-index limit, so n - 2 fits a float
            pytest.param(lambda: chernoff_bound(10**400, 0.1), id="chernoff-huge"),
            pytest.param(lambda: union_bound(10**400, 0.1), id="union-huge"),
            # on/off flags take only a bool
            {"include_direct": "yes"},
            {"all_zero": np.zeros((2, 3))},
            {"shared_noise": 1},
            _bad_cell("include_direct-string", include_direct="yes"),
            _bad_cell("all_zero-array", all_zero=np.zeros((2, 3))),
            _bad_cell("shared_noise-none", shared_noise=None),
            _bad_cell("include_direct-numpy-bool", decoder="majority", include_direct=np.bool_(True)),
            pytest.param(lambda: majority_vote_decode([0, 1, 1], include_direct=np.zeros((2, 3))),
                         id="majority-include_direct-array"),
            pytest.param(lambda: majority_vote_decode([0, 1, 1], include_direct=1), id="majority-include_direct-int"),
            pytest.param(lambda: as_bits([0, 1], batch="no"), id="as_bits-batch-string"),
            # complex bits and priors are refused, not cast with a warning
            pytest.param(lambda: as_bits(np.array([1 + 0j, 0j, 1 + 0j])), id="as_bits-complex"),
            pytest.param(lambda: encode(np.array([[1 + 0j, 0j, 1 + 0j]])), id="encode-complex"),
            pytest.param(lambda: majority_vote_decode(np.array([1 + 0j, 0j, 1 + 0j])), id="majority-complex"),
            pytest.param(lambda: mle_decode(np.array([1 + 0j, 0j, 1 + 0j]), NoiseModel(0.1)), id="mle-complex"),
            pytest.param(lambda: bp_decode(triangle_graph(3), np.full((3, 2), 0.5), observed=np.zeros(3, complex)),
                         id="bp_decode-observed-complex"),
            pytest.param(lambda: bp_decode(triangle_graph(3), np.full((3, 2), 0.5 + 0j)), id="bp_decode-complex"),
            pytest.param(lambda: apply_iid_flip(np.zeros(3, complex), NoiseModel(0.1), stream(1)),
                         id="apply_iid_flip-complex"),
            pytest.param(lambda: channel_prior(np.zeros(3, complex), NoiseModel(0.1)), id="channel_prior-complex"),
            # a complex object passes the 0/1 test, since 1+0j == 1
            pytest.param(lambda: as_bits(np.array([1 + 0j, 0, 1], dtype=object)), id="as_bits-complex-object"),
            # a repeated n or decoder would key the same streams and print a row twice
            pytest.param({"n_values": (10, 10)}, id="n_values-repeated"),
            pytest.param({"n_values": (10, 4, np.int8(10))}, id="n_values-repeated-numpy"),
            pytest.param({"decoders": ("bp", "majority", "bp")}, id="decoders-repeated"),
        ],
    )
    def test_rejects(self, kw):
        build = kw if callable(kw) else lambda: SimConfig(**{"n_values": (4,), "eps_values": (0.1,), **kw})
        with pytest.raises(ConfigError) as exc:
            build()
        assert isinstance(exc.value, LhzError) and isinstance(exc.value, ValueError)
        # a type rule names the type it got apart from the one it wants
        assert not re.search(r"must be a (\S+), got \1$", str(exc.value)), exc.value

    def test_repeated_eps_values_are_two_slots(self):
        # each eps slot keys its own streams, so a repeated value is a second cell
        sweep = run_sweep(SimConfig((5,), (0.2, 0.2), ("majority",), trials=300, seed=4))
        assert sweep.rows == tuple(run_cell(5, 0.2, "majority", 300, 4, eps_index=i) for i in (0, 1))
        assert sweep.rows[0].failures != sweep.rows[1].failures


def _cell(n=5, trials=30, decoder="majority", eps=0.2, seed=9, all_zero=False):
    """A one-cell config; its decoder keys the streams ("majority" 1, "bp" 2)."""
    return SimConfig((n,), (eps,), (decoder,), trials, seed, all_zero=all_zero)


def _draw(cell, eps_index, block=None):
    """A cell's true and observed words, (trials, k) each, drawn from its two
    streams in blocks of the given size, by default run_cell's."""
    block = block or _draw_rows(cell.n_values[0])
    rngs = _streams(cell, eps_index)
    blocks = [_draw_words(cell, rngs, min(block, cell.trials - lo)) for lo in range(0, cell.trials, block)]
    return tuple(np.concatenate(part) for part in zip(*blocks))


class TestDrawWords:
    def test_trial_streams_are_prefix_stable(self):
        # the longer cell crosses a block boundary; the shorter ones do not
        rows = _draw_rows(5)
        long = _draw(_cell(trials=rows + 5), 0)
        for trials in (40, rows, rows + 1):
            short = _draw(_cell(trials=trials), 0)
            assert (long[0][:trials] == short[0]).all()
            assert (long[1][:trials] == short[1]).all()

    @pytest.mark.parametrize("all_zero", [False, True])
    def test_block_size_changes_nothing(self, all_zero):
        whole = _draw(_cell(6, 100, seed=4, all_zero=all_zero), 2)
        blocks = _draw(_cell(6, 100, seed=4, all_zero=all_zero), 2, block=7)
        assert (whole[0] == blocks[0]).all() and (whole[1] == blocks[1]).all()

    @pytest.mark.parametrize("n", [5, 41])
    def test_bits_are_the_uniform_draw(self, n):
        # a raw output below 2^63 gives the bit of a uniform below 1/2, so the
        # logical words are those of Generator.random() < 0.5 on the same stream
        cell = _cell(n, 300, seed=12)
        true, _ = _draw(cell, 1, block=128)
        bits = _streams(cell, 1)[0].random((300, n)) < 0.5
        assert true.tobytes() == encode(bits).tobytes()

    def test_one_row_per_trial_drawn(self):
        # the benchmark's trace counts trials drawn by the rows of the first item
        rngs = _streams(_cell(), 0)
        for rows in (1, 7, _draw_rows(5)):
            true, obs = _draw_words(_cell(), rngs, rows)
            assert true.shape == obs.shape == (rows, 10)

    @pytest.mark.parametrize("all_zero", [False, True])
    def test_words_are_column_major(self, all_zero):
        # _majority_batch fills its pair matrix a word position at a time and
        # runs about three times as fast on column-major words; the bytes would
        # not change if this broke
        cell = _cell(40, 64, all_zero=all_zero)
        true, obs = _draw_words(cell, _streams(cell, 0), 64)
        assert true.flags.f_contiguous and obs.flags.f_contiguous

    def test_stream_calls_per_cell_are_constant(self, monkeypatch):
        keys = []

        def counting(*key):
            keys.append(key)
            return stream(*key)

        monkeypatch.setattr(lhzcode.sim, "stream", counting)
        calls = []
        for trials in (1, 50, 2 * _draw_rows(5) + 3):
            for all_zero in (False, True):
                keys.clear()
                run_cell(5, 0.1, "majority", trials, 3, all_zero=all_zero)
                calls.append(len(keys))
        assert calls == [2] * 6
        assert len(set(keys)) == 2  # one stream for the bits, one for the flips

    def test_bit_and_flip_rates(self):
        n, eps, trials = 20, 0.1, 3000
        true, obs = _draw(_cell(n, trials, eps=eps, seed=8), 0)
        # g_1j = b_1 ^ b_j: n-1 independent fair bits per trial
        bits = true[:, : n - 1]
        assert abs(bits.mean() - 0.5) < 5 * math.sqrt(0.25 / bits.size)
        flips = true ^ obs
        assert abs(flips.mean() - eps) < 5 * math.sqrt(eps * (1 - eps) / flips.size)

    def test_decoder_slot_changes_noise(self):
        a = _draw(_cell(), 0)
        b = _draw(_cell(decoder="bp"), 0)
        assert not (a[1] == b[1]).all()

    def test_all_zero_mode(self):
        true, obs = _draw(_cell(all_zero=True), 0)
        assert not true.any()
        assert obs.any()

    def test_words_are_codewords(self):
        true, _ = _draw(_cell(trials=20), 0)
        fg = triangle_graph(5)
        for t in range(20):
            assert not syndrome(fg, true[t]).any()


class TestRunCell:
    @pytest.mark.parametrize("rows", [1, 7, 100])
    @pytest.mark.parametrize("decoder,graph,schedule,n", [
        ("majority", "triangle", "belief", 6),
        ("mle", "triangle", "belief", 6),
        ("bp", "triangle", "belief", 7),
        ("bp", "planar", "extrinsic", 8),
    ])
    def test_block_rows_change_nothing(self, monkeypatch, decoder, graph, schedule, n, rows):
        # one block loop serves every decoder; its size changes no result. A
        # one-byte slot budget makes belief batches _BP_TRIALS rows, as
        # extrinsic ones are, and runs each round one degree slot at a time.
        def cell():
            r = run_cell(n, 0.15, decoder, 100, 5, graph=graph, schedule=schedule)
            return r, r.pair_failures

        whole = cell()
        drawn = []
        draw = lhzcode.sim._draw_words
        monkeypatch.setattr(lhzcode.sim, "_draw_words", lambda c, rngs, k: drawn.append(k) or draw(c, rngs, k))
        monkeypatch.setattr(lhzcode.sim, "_draw_rows", lambda n: rows)
        monkeypatch.setattr(lhzcode.decoders, "_BP_TRIALS", rows)
        monkeypatch.setattr(lhzcode.decoders, "_BP_SLOT_BYTES", 1)
        assert cell() == whole
        assert drawn == [rows] * (100 // rows) + [100 % rows] * (100 % rows > 0)

    @pytest.mark.parametrize("decoder,n,trials,rows", [
        ("majority", 40, 1025, 165),
        ("mle", 12, 1900, 1899),
        ("majority", 91, 63, 31),
        ("majority", 362, 5, 2),
        ("majority", 363, 3, 1),
        ("majority", 1000, 3, 1),
    ])
    def test_draw_rows_are_sized_by_bytes(self, monkeypatch, decoder, n, trials, rows):
        # majority and mle blocks take as many trials as keep what they hold
        # within _BLOCK_BYTES, one at least: 4k bytes of words, flip mask and
        # flips, and 2 n^2 of majority's pair matrix and its row xor a trial
        drawn = []
        draw = lhzcode.sim._draw_words
        monkeypatch.setattr(lhzcode.sim, "_draw_words", lambda c, rngs, k: drawn.append(k) or draw(c, rngs, k))
        run_cell(n, 0.1, decoder, trials, 1)
        assert drawn == [rows] * (trials // rows) + [trials % rows] * (trials % rows > 0)
        held = 4 * num_pairs(n) + 2 * n * n
        assert rows * held <= _BLOCK_BYTES < (rows + 1) * held or (rows == 1 and held > _BLOCK_BYTES)

    @pytest.mark.parametrize("decoder,n,factor", [("majority", 40, 1.5), ("mle", 14, 2)])
    def test_block_stays_within_the_budget(self, decoder, n, factor):
        # A cell's peak is one block's: its words, flip mask and flips, then
        # majority's pair matrix and row xor, all within _BLOCK_BYTES, or the
        # words and one score block of the search, each within _BLOCK_BYTES.
        # 1024-trial blocks peaked at 6.1 MiB (majority, 3.0 of it raw flip
        # words) and 5.2 MiB (mle, 4 of it one score block).
        run_cell(n, 0.1, decoder, 1, 1)  # first-use costs are paid before the peak
        tracemalloc.start()
        try:
            run_cell(n, 0.1, decoder, 1024, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= factor * _BLOCK_BYTES

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.17, 0.5, np.float16(0.1)])
    def test_bp_priors_are_the_channel_probabilities(self, monkeypatch, eps):
        # run_cell picks each prior's float64 bit pattern by the observed bit:
        # the bytes of np.where(obs == 0, 1 - eps, eps), and a float16 epsilon
        # gives those of its Python float
        seen = []
        bp = lhzcode.sim._bp_batch

        def spy(graph, p0, obs, *args, **kwargs):
            seen.append((p0, obs))
            return bp(graph, p0, obs, *args, **kwargs)

        monkeypatch.setattr(lhzcode.sim, "_bp_batch", spy)
        run_cell(12, eps, "bp", 40, 3)
        e = float(eps)
        assert seen
        for p0, obs in seen:
            want = np.where(obs == 0, 1.0 - e, e)
            assert p0.dtype == np.float64 and p0.shape == want.shape and p0.tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_trials(self):
        # a cell keeps one block of trials at a time, however many it runs
        def peak(trials):
            tracemalloc.start()
            try:
                run_cell(40, 0.1, "majority", trials, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = _draw_rows(40)
        assert peak(16 * rows) <= 1.5 * peak(rows)

    def test_bp_memory_does_not_grow_with_trials(self):
        # past triangle n = 40 a message-passing batch holds fewer than 32
        # trials, 10 at n = 60, and a cell keeps one batch at a time
        def peak(trials):
            tracemalloc.start()
            try:
                run_cell(60, 0.1, "bp", trials, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_cell(60, 0.1, "bp", 1, 1)  # first-use costs are paid before either peak
        assert peak(64) <= 1.25 * peak(10)

    def test_cell_graph_dies_with_the_call(self, monkeypatch):
        # run_cell owns its cell's graph, and with it the partner table
        build, refs = lhzcode.sim.graph_for, []

        def spy(kind, n):
            graph = build(kind, n)
            refs.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(lhzcode.sim, "graph_for", spy)
        for schedule in SCHEDULES:
            run_cell(12, 0.1, "bp", 40, 1, schedule=schedule)
        gc.collect()
        assert len(refs) == 2 and [r() for r in refs] == [None, None]

    def test_finished_bp_cell_keeps_nothing(self):
        # After warm-up cells at other n, finished cells at an n no other test
        # runs leave almost nothing behind: a triangle n = 59 bp cell, whose
        # graph and partner table alone are about 2 MiB, a majority cell at
        # n = 300, whose upper-triangle pair indices and their mirror alone are
        # about 0.7 MiB, and an mle cell at n = 13.
        for decoder in DECODER_IDS:
            run_cell(9, 0.1, decoder, 1, 1)
        tracemalloc.start()
        try:
            run_cell(59, 0.1, "bp", 1, 1)
            run_cell(300, 0.1, "majority", 1, 1)
            run_cell(13, 0.1, "mle", 1, 1)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 256 << 10

    def test_bp_rows(self, monkeypatch):
        # Extrinsic batches are 32 trials in every message-passing cell of the
        # benchmark. Belief batches hold no per-edge array: they keep one
        # (n_vars, trials) float64 block within 256 KiB, 32 trials at least,
        # so the 200-trial cells at triangle n = 12-16 run in one batch. Both
        # are cut where a per-edge array would pass 8 MiB: triangle n = 40 has
        # 38 slots of 780 variables, n = 60 58 slots of 1770.
        cells = [("triangle", 2), ("triangle", 10), ("triangle", 12), ("triangle", 16), ("triangle", 40),
                 ("planar", 40)]
        for graph, n in cells:
            assert _bp_rows(graph_for(graph, n), "extrinsic") == 32
        # 256 KiB over 8 bytes a variable, for 1, 45, 66, 120 and 780 variables
        assert [(256 << 10) // (8 * v) for v in (1, 45, 66, 120, 780)] == [32768, 728, 496, 273, 42]
        assert (8 << 20) // (8 * 38 * 780) == 35
        assert [_bp_rows(graph_for(graph, n), "belief") for graph, n in cells] == [32768, 728, 496, 273, 35, 42]
        for schedule in SCHEDULES:
            assert _bp_rows(graph_for("triangle", 60), schedule) == 8 * 2**20 // (8 * 58 * 1770) == 10
        monkeypatch.setattr(lhzcode.decoders, "_BP_SLOT_BYTES", 1)
        assert _bp_rows(graph_for("triangle", 10), "belief") == 32
        monkeypatch.setattr(lhzcode.decoders, "_BP_BLOCK_BYTES", 1)
        assert _bp_rows(graph_for("triangle", 10), "belief") == 1

    def test_deterministic(self):
        a = run_cell(6, 0.15, "bp", 300, 21)
        b = run_cell(6, 0.15, "bp", 300, 21)
        assert a == b
        assert a.pair_failures == b.pair_failures

    def test_seed_matters(self):
        a = run_cell(6, 0.15, "majority", 500, 1)
        b = run_cell(6, 0.15, "majority", 500, 2)
        assert a.failures != b.failures

    def test_row_metadata(self):
        r = run_cell(6, 0.15, "bp", 50, 7, bp_iterations=3, graph="planar")
        assert (r.decoder, r.graph, r.n, r.epsilon) == ("bp", "planar", 6, 0.15)
        assert r.iterations == 3 and r.trials == 50 and r.seed == 7
        assert r.chernoff == chernoff_bound(6, 0.15)
        assert r.union_bound == union_bound(6, 0.15)
        r2 = run_cell(6, 0.15, "majority", 50, 7, bp_iterations=3)
        assert r2.iterations == 0  # one-shot decoders report no rounds

    def test_noiseless_channel(self):
        r = run_cell(5, 0.0, "majority", 200, 1)
        assert r.failures == 0 and r.p_fail == 0.0
        assert r.stderr == 3.0 / 200  # rule of three when nothing failed

    def test_wald_stderr(self):
        r = run_cell(2, 0.3, "bp", 400, 3)
        if r.failures:
            assert r.stderr == pytest.approx(
                math.sqrt(r.p_fail * (1 - r.p_fail) / 400)
            )

    def test_n2_failure_rate_is_epsilon(self):
        for dec in ("majority", "bp", "mle"):
            r = run_cell(2, 0.1, dec, 3000, 5)
            assert abs(r.p_fail - 0.1) < 4 * math.sqrt(0.1 * 0.9 / 3000)

    def test_majority_pair_rate_matches_exact(self):
        r = run_cell(10, 0.1, "majority", 4000, 11)
        exact = exact_majority_pair_fail(10, 0.1)
        assert abs(r.pair_failures / r.trials - exact) < 4 * math.sqrt(exact * (1 - exact) / 4000)

    def test_shared_noise_pairs_decoders(self, monkeypatch):
        seen = {}
        draw = lhzcode.sim._draw_words

        def recording(cell, *rest):
            true, obs = draw(cell, *rest)
            seen.setdefault(cell.decoders[0], []).append(obs.copy())
            return true, obs

        def words(decoder):  # every block drawn for the decoder, in trial order
            return np.concatenate(seen.pop(decoder))

        monkeypatch.setattr(lhzcode.sim, "_draw_words", recording)
        mle = run_cell(6, 0.2, "mle", 800, 3, shared_noise=True)
        maj = run_cell(6, 0.2, "majority", 800, 3, shared_noise=True)
        bp = run_cell(6, 0.2, "bp", 800, 3, shared_noise=True)
        shared = words("mle")
        assert shared.shape == (800, 15)
        assert (words("majority") == shared).all() and (words("bp") == shared).all()
        assert mle.failures <= maj.failures
        assert mle.failures <= bp.failures
        # without shared noise each decoder has its own words
        run_cell(6, 0.2, "majority", 800, 3)
        assert not (words("majority") == shared).all()

    def test_mle_capacity(self):
        from lhzcode import CapacityError

        with pytest.raises(CapacityError, match="n=30"):
            run_cell(30, 0.1, "mle", 5, 1)

    def test_bp_graph_capacity(self, monkeypatch):
        from lhzcode import CapacityError

        # refused before a single trial is drawn
        monkeypatch.setattr(lhzcode.sim, "_draw_words", None)
        with pytest.raises(CapacityError, match="triangle graph at n=1000 has 498501000 edges"):
            run_cell(1000, 0.1, "bp", 1, 1)
        with pytest.raises(CapacityError, match="planar graph at n=2899"):
            run_cell(2899, 0.1, "bp", 1, 1, graph="planar")

    def test_graph_for_across_threads(self, monkeypatch):
        # Threads asking for one (kind, n) at once wait for the first one's
        # build, so the graph is built once and all get that one object, and
        # once they let go no graph stays behind.
        build, built = lhzcode.sim._GRAPHS["triangle"], []
        monkeypatch.setitem(lhzcode.sim._GRAPHS, "triangle", lambda n: built.append(n) or build(n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                graphs = list(pool.map(lambda _: graph_for("triangle", 14), range(64), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(graphs) == 64 and built == [14]
        assert all(g is graphs[0] for g in graphs)
        del graphs
        gc.collect()
        assert ("triangle", 14) not in lhzcode.sim._LIVE

    def test_graph_for_n2(self):
        fg = graph_for("triangle", 2)
        assert fg.n_vars == 1 and fg.n_checks == 0

    def test_extrinsic_bias_saturation(self):
        # soft-prior extrinsic biases used to round to exactly +-1 here, which
        # zeroed check messages and raised InconsistentEvidenceError
        r = run_cell(20, 0.2, "bp", 512, 1, schedule="extrinsic")
        assert 0 < r.failures < 0.2 * r.trials


def _one_word(cell):
    """The one-word decoder of a one-cell config, word -> DecodeOutcome."""
    (n,), (eps,), (decoder,) = cell.n_values, cell.eps_values, cell.decoders
    if decoder == "majority":
        return lambda w: majority_vote_decode(w, include_direct=cell.include_direct)
    if decoder == "mle":
        return lambda w: mle_decode(w, NoiseModel(eps))
    fg = graph_for(cell.graph, n)
    return lambda w: bp_decode(fg, channel_prior(w, NoiseModel(eps)), iterations=cell.bp_iterations,
                               schedule=cell.schedule, observed=w)


class TestCellsMatchOneWordDecoders:
    # Each batch kernel against its one-word decoder over a whole cell: the
    # cell's observed words, redrawn from its streams and decoded one at a
    # time, give run_cell's failure counts. mle at eps = 1/2 is left out:
    # mle_decode returns the degenerate all-zero word there, while a cell's
    # blocks still run the search.
    @pytest.mark.parametrize("decoder,n,eps,eps_index,kw", [
        ("majority", 10, 0.2, 0, {}),  # ties among the 8 votes fall to the observed bit
        ("majority", 9, 0.2, 2, {"include_direct": True}),  # the direct vote matters where n - 2 is odd
        ("majority", 11, 0.25, 0, {"include_direct": True, "all_zero": True}),
        ("mle", 8, 0.15, 0, {"shared_noise": True}),
        ("mle", 10, 0.2, 1, {"all_zero": True}),
        ("bp", 7, 0.2, 0, {}),
        ("bp", 8, 0.2, 0, {"schedule": "extrinsic", "bp_iterations": 3, "shared_noise": True}),
        ("bp", 9, 0.15, 3, {"graph": "planar"}),
        ("bp", 10, 0.15, 0, {"graph": "planar", "schedule": "extrinsic", "all_zero": True}),
    ])
    def test_failures_match(self, decoder, n, eps, eps_index, kw):
        cell = SimConfig((n,), (eps,), (decoder,), 60, 17, **kw)
        got = run_cell(n, eps, decoder, cell.trials, cell.seed, eps_index=eps_index, **kw)
        true, obs = _draw_words(cell, _streams(cell, eps_index), cell.trials)
        decode = _one_word(cell)
        decoded = np.array([decode(w).consecutive for w in obs])
        true = true[:, consecutive_indices(n)]
        failures = int((decoded != true).any(axis=1).sum())
        assert 0 < failures < cell.trials  # a cell where the counts say something
        assert (got.failures, got.pair_failures) == (failures, int((decoded[:, 0] != true[:, 0]).sum()))


class TestRunSweep:
    def test_row_order_and_content(self):
        cfg = SimConfig(
            n_values=(4, 6), eps_values=(0.05, 0.1), decoders=("majority", "bp"), trials=60, seed=13
        )
        sweep = run_sweep(cfg)
        keys = [(r.decoder, r.n, r.epsilon) for r in sweep.rows]
        assert keys == [
            ("majority", 4, 0.05),
            ("majority", 4, 0.1),
            ("majority", 6, 0.05),
            ("majority", 6, 0.1),
            ("bp", 4, 0.05),
            ("bp", 4, 0.1),
            ("bp", 6, 0.05),
            ("bp", 6, 0.1),
        ]
        assert sweep.errors == ()

    def test_threads_equal_serial(self):
        cfg = SimConfig(
            n_values=(2, 5, 8), eps_values=(0.1, 0.2), decoders=("bp", "majority"), trials=80, seed=17
        )
        assert run_sweep(cfg, threads=1) == run_sweep(cfg, threads=8)

    def test_threads_capped(self, monkeypatch):
        # a serial stand-in records the pool size run_sweep asks for, one pool per sweep
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(lhzcode.sim, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        # three (decoder, n) groups of two eps cells each: one worker per eps cell at most
        cfg = SimConfig(n_values=(3, 4, 5), eps_values=(0.1, 0.2), decoders=("majority",), trials=10, seed=2)
        assert run_sweep(cfg, threads=10**6) == run_sweep(cfg)
        assert sizes == [2, 1]
        # three eps cells, at most as many workers as asked for
        wide = SimConfig(n_values=(3, 4), eps_values=(0.1, 0.2, 0.3), decoders=("majority",), trials=10, seed=2)
        assert run_sweep(wide, threads=2) == run_sweep(wide, threads=10**6) == run_sweep(wide)
        assert sizes == [2, 1, 2, 3, 1]
        # and one per CPU, or one when the CPU count is unknown
        for cpus, want in ((2, 2), (1, 1), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            run_sweep(wide, threads=10**6)
            assert sizes[-1] == want
        with pytest.raises(ConfigError):
            run_sweep(cfg, threads=0)

    def test_group_cells_run_at_once(self, monkeypatch):
        # A group's two eps cells each wait for the other inside run_cell, so
        # the sweep ends only if they run on two threads at once.
        cfg = SimConfig((9,), (0.05, 0.1), ("bp",), trials=40)
        serial = run_sweep(cfg)
        cell, both = lhzcode.sim.run_cell, threading.Barrier(2, timeout=10)

        def spy(*args, **kwargs):
            both.wait()
            return cell(*args, **kwargs)

        monkeypatch.setattr(lhzcode.sim, "run_cell", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert run_sweep(cfg, threads=2) == serial

    def test_one_worker_starts_no_thread(self, monkeypatch):
        # One eps cell, or threads=1, makes one worker, and the cells run on
        # the calling thread.
        cell, seen = lhzcode.sim.run_cell, []

        def spy(*args, **kwargs):
            seen.append(threading.get_ident())
            return cell(*args, **kwargs)

        monkeypatch.setattr(lhzcode.sim, "run_cell", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        run_sweep(SimConfig((4, 6), (0.1,), ("majority", "bp"), trials=20), threads=8)
        run_sweep(SimConfig((4,), (0.1, 0.2), ("bp",), trials=20), threads=1)
        assert seen == [threading.get_ident()] * 6

    def test_one_graph_at_a_time(self, monkeypatch):
        # Each group lets go of its graph before the next group builds one,
        # however many threads the sweep may use.
        build, held = lhzcode.sim._GRAPHS["triangle"], []
        monkeypatch.setitem(lhzcode.sim._GRAPHS, "triangle",
                            lambda n: held.append(len(lhzcode.sim._LIVE)) or build(n))
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        gc.collect()
        cfg = SimConfig((7, 11, 15), (0.05, 0.1), ("bp",), trials=20, seed=3)
        assert run_sweep(cfg, threads=8) == run_sweep(cfg)
        assert held == [0, 0, 0] * 2

    def test_capacity_errors_collected(self):
        # Each refused (decoder, n) group yields one CellError per eps cell, in
        # row order, with the text the lone cell raises.
        from lhzcode import CapacityError

        def refusal(n, decoder):
            with pytest.raises(CapacityError) as refused:
                run_cell(n, 0.1, decoder, 20, 1)
            return str(refused.value)

        cfg = SimConfig(n_values=(4, 30), eps_values=(0.1, 0.2), decoders=("mle",), trials=20, seed=1)
        sweep = run_sweep(cfg)
        assert [(r.n, r.epsilon) for r in sweep.rows] == [(4, 0.1), (4, 0.2)]
        text = refusal(30, "mle")
        assert "n=30" in text
        assert sweep.errors == (CellError("mle", 30, 0.1, text), CellError("mle", 30, 0.2, text))
        # an oversized constraint graph refuses its group the same way, past
        # the edge limit at triangle n = 324 as far past it as n = 1000
        sweep = run_sweep(SimConfig((4, 324, 1000), (0.1, 0.2), ("bp",), trials=20, seed=1))
        assert [(r.n, r.epsilon) for r in sweep.rows] == [(4, 0.1), (4, 0.2)]
        texts = [refusal(324, "bp"), refusal(1000, "bp")]
        assert texts[0] == "the triangle graph at n=324 has 16848972 edges, past the 16777216-edge limit"
        assert sweep.errors == tuple(CellError("bp", n, eps, t) for n, t in zip((324, 1000), texts) for eps in (0.1, 0.2))

    def test_capacity_errors_collected_across_threads(self, monkeypatch):
        # Refusals raised on worker threads give the same CellErrors, in row order.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for config in (SimConfig((4, 30), (0.1, 0.2), ("mle", "bp"), trials=20, seed=1),
                       SimConfig((4, 324), (0.1, 0.2), ("bp",), trials=20, seed=1)):
            threaded = run_sweep(config, threads=2)
            assert threaded == run_sweep(config) and len(threaded.errors) == 2

    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_one_partner_table_per_group(self, monkeypatch, schedule, threads):
        # A bp group holds its graph while its eps cells run, so each cell's
        # graph_for returns it and the partner table is built once per n.
        cfg = SimConfig((7, 11), (0.05, 0.1, 0.2), ("bp",), trials=40, seed=5, schedule=schedule)
        loop = [run_cell(n, eps, "bp", 40, 5, eps_index=ei, schedule=schedule)
                for n in cfg.n_values for ei, eps in enumerate(cfg.eps_values)]
        layout, built = lhzcode.decoders._bp_layout, []

        def spy(graph, schedule):
            built.append((graph.n_vars, schedule))
            return layout(graph, schedule)

        monkeypatch.setattr(lhzcode.decoders, "_bp_layout", spy)
        sweep = run_sweep(cfg, threads=threads)
        assert sorted(built) == [(21, schedule), (55, schedule)]
        assert sweep.rows == tuple(loop) and sweep.errors == ()
        assert not {("triangle", 7), ("triangle", 11)} & set(lhzcode.sim._LIVE.keys())  # each group dropped its graph

    def test_cells_keyed_by_slot_not_sweep_shape(self):
        # streams are keyed on (seed, decoder, n, eps slot): adding
        # n values or decoders leaves a cell untouched, and a lone run_cell
        # with the matching eps slot reproduces the sweep's row exactly
        wide = run_sweep(
            SimConfig(n_values=(3, 5), eps_values=(0.1, 0.2), decoders=("majority", "bp"), trials=70, seed=23)
        )
        match = [r for r in wide.rows if (r.decoder, r.n, r.epsilon) == ("bp", 5, 0.2)]
        lone = run_cell(5, 0.2, "bp", 70, 23, eps_index=1)
        assert match == [lone]
        taller = run_sweep(
            SimConfig(n_values=(5, 9), eps_values=(0.1, 0.2), decoders=("bp",), trials=70, seed=23)
        )
        again = [r for r in taller.rows if (r.decoder, r.n, r.epsilon) == ("bp", 5, 0.2)]
        assert again == [lone]

    def test_eps_index_keys_the_stream(self):
        # the key uses the epsilon slot, not the epsilon value
        a = _draw(_cell(), 0)
        b = _draw(_cell(), 1)
        assert not (a[0] == b[0]).all()
        assert not (a[1] == b[1]).all()
