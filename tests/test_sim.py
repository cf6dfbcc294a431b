import gc
import math
import os
import tracemalloc
import weakref

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
    pair_index,
    pair_table,
    planar_lhz_graph,
    run_cell,
    run_sweep,
    stream,
    triangle_graph,
    union_bound,
)
from lhzcode.decoders import SCHEDULES, _bp_rows
from lhzcode.sim import _DRAW_BLOCK, _draw_words, _streams, graph_for

from reference import exact_majority_pair_fail, syndrome


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
            pytest.param(lambda: majority_vote_decode([0, 1, 1], include_direct=np.zeros((2, 3))),
                         id="majority-include_direct-array"),
            pytest.param(lambda: majority_vote_decode([0, 1, 1], include_direct=1), id="majority-include_direct-int"),
            pytest.param(lambda: as_bits([0, 1], batch="no"), id="as_bits-batch-string"),
        ],
    )
    def test_rejects(self, kw):
        build = kw if callable(kw) else lambda: SimConfig(**{"n_values": (4,), "eps_values": (0.1,), **kw})
        with pytest.raises(ConfigError) as exc:
            build()
        assert isinstance(exc.value, LhzError) and isinstance(exc.value, ValueError)


def _cell(n=5, trials=30, decoder="majority", eps=0.2, seed=9, all_zero=False):
    """A one-cell config; its decoder keys the streams ("majority" 1, "bp" 2)."""
    return SimConfig((n,), (eps,), (decoder,), trials, seed, all_zero=all_zero)


def _draw(cell, eps_index, block=_DRAW_BLOCK):
    """A cell's true and observed words, (trials, k) each, drawn from its two
    streams in blocks of the given size, as run_cell draws them."""
    rngs = _streams(cell, eps_index)
    blocks = [_draw_words(cell, rngs, min(block, cell.trials - lo)) for lo in range(0, cell.trials, block)]
    return tuple(np.concatenate(part) for part in zip(*blocks))


class TestDrawWords:
    def test_trial_streams_are_prefix_stable(self):
        # the longer cell crosses a block boundary; the shorter ones do not
        long = _draw(_cell(trials=_DRAW_BLOCK + 5), 0)
        for trials in (40, _DRAW_BLOCK, _DRAW_BLOCK + 1):
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
        for rows in (1, 7, _DRAW_BLOCK):
            true, obs = _draw_words(_cell(), rngs, rows)
            assert true.shape == obs.shape == (rows, 10)

    @pytest.mark.parametrize("all_zero", [False, True])
    def test_words_are_column_major(self, all_zero):
        # _majority_batch gathers columns and runs about four times as fast on
        # column-major words; the bytes would not change if this broke
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
        for trials in (1, 50, 2 * _DRAW_BLOCK + 3):
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
        monkeypatch.setattr(lhzcode.sim, "_DRAW_BLOCK", rows)
        monkeypatch.setattr(lhzcode.decoders, "_BP_TRIALS", rows)
        monkeypatch.setattr(lhzcode.decoders, "_BP_SLOT_BYTES", 1)
        assert cell() == whole
        assert drawn == [rows] * (100 // rows) + [100 % rows] * (100 % rows > 0)

    @pytest.mark.parametrize("decoder,n,trials,rows", [
        ("majority", 40, 2049, 1024),
        ("mle", 12, 1025, 1024),
        ("majority", 91, 1025, 1024),
        ("majority", 92, 1003, 1001),
        ("majority", 1000, 17, 8),
    ])
    def test_draw_rows_are_sized_by_bytes(self, monkeypatch, decoder, n, trials, rows):
        # majority and mle blocks are _DRAW_BLOCK trials through n = 91, then
        # as many as keep the raw flip words, ceil(k/2) outputs of 8 bytes a
        # trial, within 16 MiB: 8 at n = 1000, where 1024 trials took 1.9 GiB
        drawn = []
        draw = lhzcode.sim._draw_words
        monkeypatch.setattr(lhzcode.sim, "_draw_words", lambda c, rngs, k: drawn.append(k) or draw(c, rngs, k))
        run_cell(n, 0.1, decoder, trials, 1)
        assert drawn == [rows] * (trials // rows) + [trials % rows] * (trials % rows > 0)
        raw = 8 * ((num_pairs(n) + 1) // 2)
        assert rows == _DRAW_BLOCK or rows * raw <= 16 << 20 < (rows + 1) * raw

    def test_memory_does_not_grow_with_trials(self):
        # a cell keeps one block of trials at a time, however many it runs
        def peak(trials):
            tracemalloc.start()
            try:
                run_cell(40, 0.1, "majority", trials, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * _DRAW_BLOCK) <= 1.5 * peak(_DRAW_BLOCK)

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
        # After a warm-up cell at another n, a finished triangle n = 59 cell
        # (an n no other test builds) leaves almost nothing behind; its graph
        # and partner table alone are about 2 MiB.
        run_cell(20, 0.1, "bp", 1, 1)
        tracemalloc.start()
        try:
            run_cell(59, 0.1, "bp", 1, 1)
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
        assert abs(r.pair_fail_rate - exact) < 4 * math.sqrt(exact * (1 - exact) / 4000)

    def test_shared_noise_pairs_decoders(self, monkeypatch):
        seen = {}
        decode = lhzcode.sim._decode_consecutive

        def recording(obs, *rest):
            seen.setdefault(rest[0].decoders[0], []).append(obs.copy())
            return decode(obs, *rest)

        def words(decoder):  # every block the decoder saw, in trial order
            return np.concatenate(seen.pop(decoder))

        monkeypatch.setattr(lhzcode.sim, "_decode_consecutive", recording)
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

    def test_graph_for_n2(self):
        fg = graph_for("triangle", 2)
        assert fg.n_vars == 1 and fg.n_checks == 0

    def test_extrinsic_bias_saturation(self):
        # soft-prior extrinsic biases used to round to exactly +-1 here, which
        # zeroed check messages and raised InconsistentEvidenceError
        r = run_cell(20, 0.2, "bp", 512, 1, schedule="extrinsic")
        assert 0 < r.failures < 0.2 * r.trials


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
        # a serial stand-in records the pool size run_sweep asks for
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
        cfg = SimConfig(n_values=(3, 4, 5), eps_values=(0.1,), decoders=("majority",), trials=10, seed=2)
        assert run_sweep(cfg, threads=10**6) == run_sweep(cfg)
        assert all(s <= min(3, os.cpu_count() or 1) for s in sizes)
        with pytest.raises(ConfigError):
            run_sweep(cfg, threads=0)

    def test_capacity_errors_collected(self):
        cfg = SimConfig(n_values=(4, 30), eps_values=(0.1,), decoders=("mle",), trials=20, seed=1)
        sweep = run_sweep(cfg)
        assert len(sweep.rows) == 1 and sweep.rows[0].n == 4
        assert len(sweep.errors) == 1
        err = sweep.errors[0]
        assert isinstance(err, CellError)
        assert (err.decoder, err.n, err.epsilon) == ("mle", 30, 0.1)
        assert "n=30" in err.message
        # an oversized constraint graph is one more refused cell
        sweep = run_sweep(SimConfig((4, 1000), (0.1,), ("bp",), trials=20, seed=1))
        assert [r.n for r in sweep.rows] == [4]
        assert [(e.decoder, e.n) for e in sweep.errors] == [("bp", 1000)]

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
