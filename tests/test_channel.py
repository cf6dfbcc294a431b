import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lhzcode.channel
from lhzcode import ConfigError, DimensionError, NoiseModel, apply_iid_flip, channel_prior, stream

# SHA-256 of the flips of a (64, 45) zero batch at eps 0.1 from stream(2024, 7).
# PCG64 and SeedSequence outputs are fixed across numpy versions, so this
# holds on every numpy the package supports.
FROZEN_DRAW_SHA256 = "f9e97ec5657830abab09fdf3695e5f7102fa6463564b31f6f14ad104f3e52b88"


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

    @pytest.mark.parametrize("k", [8, 45])
    def test_flips_are_split_raw_words(self, k):
        # word t reads raw outputs [t*ceil(k/2), (t+1)*ceil(k/2)); bit 2i flips
        # on output i's low 32 bits, bit 2i+1 on its high ones, an odd k
        # drops the last high half, and the rng ends past exactly those outputs
        words, eps = (k + 1) // 2, 0.3
        g = np.random.default_rng(k).integers(0, 2, size=(7, k), dtype=np.uint8)
        ref = stream(42, 9).bit_generator
        raw = ref.random_raw((7, words))
        halves = np.empty((7, 2 * words), dtype=np.uint64)
        halves[:, 0::2], halves[:, 1::2] = raw & 0xFFFFFFFF, raw >> 32
        expected = g ^ (halves[:, :k] < round(eps * 2**32))
        rng = stream(42, 9)
        assert (apply_iid_flip(g, NoiseModel(eps), rng) == expected).all()
        assert rng.bit_generator.random_raw() == ref.random_raw()

    def test_memory_order_changes_nothing(self):
        # encode's batches are column-major; the flips must not depend on that
        g = np.random.default_rng(2).integers(0, 2, size=(33, 45), dtype=np.uint8)
        for words in (np.asfortranarray(g), g[:, ::-1].copy()[:, ::-1]):
            assert (apply_iid_flip(words, NoiseModel(0.2), stream(8)) == apply_iid_flip(g, NoiseModel(0.2), stream(8))).all()

    @pytest.mark.parametrize("shape", [(9,), (300, 45), (2, 0)])
    def test_eps_zero_flips_nothing(self, shape):
        g = np.random.default_rng(1).integers(0, 2, size=shape, dtype=np.uint8)
        assert (apply_iid_flip(g, NoiseModel(0.0), stream(3)) == g).all()

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_rate_is_threshold_over_2_32(self, eps):
        thr = round(eps * 2**32)
        assert abs(thr / 2**32 - eps) <= 2.0**-33
        p, draws, flips = thr / 2**32, 10**7, 0
        rng = stream(77, int(eps * 10))
        for _ in range(10):  # 10^6 flips per call keeps the raw words at 4 MB
            flips += int(apply_iid_flip(np.zeros((100, 10**4), dtype=np.uint8), NoiseModel(eps), rng).sum())
        assert abs(flips - draws * p) < 5 * math.sqrt(draws * p * (1 - p))

    def test_blocks_at_odd_k_equal_one_draw(self):
        g = np.zeros((1500, 45), dtype=np.uint8)  # n = 10
        whole = apply_iid_flip(g, NoiseModel(0.2), stream(5, 10))
        rng = stream(5, 10)
        parts = [apply_iid_flip(g[:1024], NoiseModel(0.2), rng), apply_iid_flip(g[1024:], NoiseModel(0.2), rng)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    def test_frozen_draw(self):
        # any change to the flip stream's layout, or to the raw PCG64
        # outputs behind it, shows here
        out = apply_iid_flip(np.zeros((64, 45), dtype=np.uint8), NoiseModel(0.1), stream(2024, 7))
        assert hashlib.sha256(out.tobytes()).hexdigest() == FROZEN_DRAW_SHA256

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


class TestChunkedDraw:
    # apply_iid_flip draws and thresholds its raw outputs _FLIP_CHUNK at a
    # time; any chunk gives the bytes of the split raw words of one whole draw
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(7, 8), (7, 45), (8,), (45,), (2, 0), (0, 8), (0, 45)])
    @pytest.mark.parametrize("chunk", ["one", "odd", "whole"])
    def test_chunk_size_changes_nothing(self, monkeypatch, chunk, shape, order):
        *rows, k = shape
        words = (k + 1) // 2
        raw_count = math.prod(rows) * words
        # 5 outputs split a trial of 4 (k = 8) or 23 (k = 45) outputs
        monkeypatch.setattr(lhzcode.channel, "_FLIP_CHUNK", {"one": 1, "odd": 5, "whole": max(1, raw_count)}[chunk])
        g = np.random.default_rng(k).integers(0, 2, size=shape, dtype=np.uint8)
        g = np.asfortranarray(g) if order == "F" else np.ascontiguousarray(g)
        kept = g.copy(order="A")
        ref = stream(42, 9).bit_generator
        raw = ref.random_raw(raw_count).reshape(*rows, words)
        halves = np.empty((*rows, 2 * words), dtype=np.uint64)
        halves[..., 0::2], halves[..., 1::2] = raw & 0xFFFFFFFF, raw >> 32
        expected = g ^ (halves[..., :k] < round(0.3 * 2**32))
        rng = stream(42, 9)
        out = apply_iid_flip(g, NoiseModel(0.3), rng)
        assert out.dtype == np.uint8 and out.shape == shape and out.tobytes() == expected.tobytes()
        assert rng.bit_generator.random_raw() == ref.random_raw()
        assert g.flags.c_contiguous == kept.flags.c_contiguous and g.tobytes(order="A") == kept.tobytes(order="A")
        assert out is not g


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

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.17, 0.5, np.float16(0.1), np.float32(0.3)], ids=repr)
    def test_bytes_of_the_where_rule(self, eps):
        # the bit-pattern select gives np.where's bytes, p1 = 1 - p0 included,
        # and a numpy float epsilon those of its Python float
        bits = np.random.default_rng(5).integers(0, 2, 45, dtype=np.uint8)
        p0 = np.where(bits == 0, 1.0 - float(eps), float(eps))
        pri = channel_prior(bits, NoiseModel(eps))
        assert pri.dtype == np.float64 and pri.tobytes() == np.stack([p0, 1.0 - p0], axis=1).tobytes()
