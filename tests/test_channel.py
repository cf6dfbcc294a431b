import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lhzcode import ConfigError, DimensionError, NoiseModel, apply_iid_flip, channel_prior, stream


class TestNoiseModel:
    def test_bounds(self):
        NoiseModel(0.0)
        NoiseModel(0.5)
        with pytest.raises(ValueError):
            NoiseModel(-0.01)
        with pytest.raises(ValueError):
            NoiseModel(0.51)


class TestStream:
    def test_reproducible(self):
        a = stream(7, 1, 2).random(5)
        b = stream(7, 1, 2).random(5)
        assert (a == b).all()

    def test_distinct_keys(self):
        assert stream(7, 1, 2).random() != stream(7, 1, 3).random()
        assert stream(7, 1, 2).random() != stream(8, 1, 2).random()
        assert stream(7).random() != stream(7, 0).random()

    def test_creation_order_irrelevant(self):
        a1 = stream(3, 5)
        b1 = stream(3, 6)
        x = a1.random(3), b1.random(3)
        b2 = stream(3, 6)
        a2 = stream(3, 5)
        y = a2.random(3), b2.random(3)
        assert (x[0] == y[0]).all() and (x[1] == y[1]).all()


class TestApplyFlip:
    def test_eps_zero_identity(self):
        g = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        out = apply_iid_flip(g, NoiseModel(0.0), stream(1))
        assert (out == g).all()

    def test_draw_budget(self):
        # flipping a word consumes exactly len(word) uniforms, in order,
        # which is what lets a cell draw its trials block by block
        g = np.zeros(8, dtype=np.uint8)
        r1 = stream(42, 9)
        apply_iid_flip(g, NoiseModel(0.3), r1)
        tail1 = r1.random(4)
        r2 = stream(42, 9)
        r2.random(8)
        tail2 = r2.random(4)
        assert (tail1 == tail2).all()

    def test_flip_pattern_is_threshold(self):
        g = np.zeros(16, dtype=np.uint8)
        u = stream(5, 0).random(16)
        out = apply_iid_flip(g, NoiseModel(0.25), stream(5, 0))
        assert (out == (u < 0.25)).all()

    def test_batch_equals_rows(self):
        g = np.random.default_rng(0).integers(0, 2, size=(9, 10), dtype=np.uint8)
        batch = apply_iid_flip(g, NoiseModel(0.3), stream(6))
        rng = stream(6)
        rows = np.stack([apply_iid_flip(row, NoiseModel(0.3), rng) for row in g])
        assert batch.dtype == np.uint8 and (batch == rows).all()

    def test_batch_rejects_non_bits(self):
        with pytest.raises(ConfigError):
            apply_iid_flip(np.full((2, 3), 2), NoiseModel(0.1), stream(1))
        with pytest.raises(DimensionError):
            apply_iid_flip(np.zeros((2, 3, 1)), NoiseModel(0.1), stream(1))

    def test_flip_rate(self):
        g = np.zeros(20000, dtype=np.uint8)
        out = apply_iid_flip(g, NoiseModel(0.1), stream(123))
        rate = out.mean()
        assert abs(rate - 0.1) < 4 * np.sqrt(0.1 * 0.9 / 20000)

    def test_symmetric(self):
        ones = np.ones(4000, dtype=np.uint8)
        out = apply_iid_flip(ones, NoiseModel(0.2), stream(9))
        assert abs((out == 0).mean() - 0.2) < 4 * np.sqrt(0.2 * 0.8 / 4000)


class TestChannelPrior:
    def test_rows(self):
        pri = channel_prior([0, 1], NoiseModel(0.1))
        assert np.allclose(pri, [[0.9, 0.1], [0.1, 0.9]])

    @given(st.floats(0.0, 0.5), st.lists(st.integers(0, 1), min_size=1, max_size=12))
    def test_normalized_and_consistent(self, eps, bits):
        pri = channel_prior(bits, NoiseModel(eps))
        assert np.allclose(pri.sum(axis=1), 1.0)
        for b, row in zip(bits, pri):
            assert row[b] == pytest.approx(1.0 - eps)

    def test_half_is_flat(self):
        pri = channel_prior([0, 1, 1], NoiseModel(0.5))
        assert (pri == 0.5).all()
