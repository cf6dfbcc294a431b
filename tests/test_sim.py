import math
import os

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
    SimConfig,
    as_bits,
    bp_decode,
    SimResult,
    chernoff_bound,
    epsilon_star,
    run_cell,
    run_sweep,
    triangle_graph,
    union_bound,
)
from lhzcode.sim import _draw_words, graph_for

from reference import exact_majority_pair_fail


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
            # run_cell checks its arguments through a one-cell SimConfig, and
            # graph_for knows only the kinds in its table
            _bad_cell("graph", graph="foo"),
            _bad_cell("iterations", bp_iterations=0),
            _bad_cell("trials", trials=0),
            _bad_cell("decoder", decoder="turbo"),
            _bad_cell("schedule", decoder="majority", schedule="nope"),
            _bad_cell("seed", seed=-1),
            _bad_cell("eps_index", eps_index=-1),
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
        ],
    )
    def test_rejects(self, kw):
        build = kw if callable(kw) else lambda: SimConfig(**{"n_values": (4,), "eps_values": (0.1,), **kw})
        with pytest.raises(ConfigError) as exc:
            build()
        assert isinstance(exc.value, LhzError) and isinstance(exc.value, ValueError)


class TestDrawWords:
    def test_trial_streams_are_prefix_stable(self):
        t60 = _draw_words(5, 0.2, 60, 9, 1, 0, False)
        t40 = _draw_words(5, 0.2, 40, 9, 1, 0, False)
        assert (t60[0][:40] == t40[0]).all()
        assert (t60[1][:40] == t40[1]).all()

    def test_decoder_slot_changes_noise(self):
        a = _draw_words(5, 0.2, 30, 9, 1, 0, False)
        b = _draw_words(5, 0.2, 30, 9, 2, 0, False)
        assert not (a[1] == b[1]).all()

    def test_all_zero_mode(self):
        true, obs = _draw_words(5, 0.2, 30, 9, 1, 0, True)
        assert not true.any()
        assert obs.any()

    def test_words_are_codewords(self):
        from lhzcode import syndrome, triangle_graph

        true, _ = _draw_words(5, 0.2, 20, 9, 1, 0, False)
        fg = triangle_graph(5)
        for t in range(20):
            assert not syndrome(fg, true[t]).any()


class TestRunCell:
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

    def test_shared_noise_pairs_decoders(self):
        a = _draw_words(6, 0.2, 40, 3, 0, 0, False)
        b = _draw_words(6, 0.2, 40, 3, 0, 0, False)
        assert (a[1] == b[1]).all()
        mle = run_cell(6, 0.2, "mle", 800, 3, shared_noise=True)
        maj = run_cell(6, 0.2, "majority", 800, 3, shared_noise=True)
        bp = run_cell(6, 0.2, "bp", 800, 3, shared_noise=True)
        assert mle.failures <= maj.failures
        assert mle.failures <= bp.failures

    def test_mle_capacity(self):
        from lhzcode import CapacityError

        with pytest.raises(CapacityError, match="n=30"):
            run_cell(30, 0.1, "mle", 5, 1)

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

    def test_cells_keyed_by_slot_not_sweep_shape(self):
        # streams are keyed on (seed, decoder, n, eps slot, trial): adding
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
        a = _draw_words(5, 0.2, 30, 9, 1, 0, False)
        b = _draw_words(5, 0.2, 30, 9, 1, 1, False)
        assert not (a[0] == b[0]).all()
        assert not (a[1] == b[1]).all()
