import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhzcode import (
    ConfigError,
    DimensionError,
    InvalidPairError,
    as_bits,
    consecutive_indices,
    encode,
    index_pair,
    logical_from_consecutive,
    num_logical,
    num_pairs,
    pair_index,
    pair_table,
)
from reference import consecutive_bits, logical_readout

bit_words = st.integers(2, 9).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
)


class TestPairIndexing:
    def test_known_values(self):
        assert pair_index(1, 2, 5) == 0
        assert pair_index(2, 4, 5) == 5
        assert pair_index(4, 5, 5) == 9

    def test_n4_order(self):
        assert pair_table(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_matches_triu(self):
        for n in (2, 3, 5, 8):
            iu, ju = np.triu_indices(n, 1)
            assert pair_table(n) == tuple(zip((iu + 1).tolist(), (ju + 1).tolist()))

    @pytest.mark.parametrize("i,j", [(2, 2), (3, 2), (0, 1), (1, 6), (-1, 2)])
    def test_rejects_bad_pairs(self, i, j):
        with pytest.raises(InvalidPairError):
            pair_index(i, j, 5)

    @pytest.mark.parametrize("k", [-1, 10, 11])
    def test_rejects_bad_index(self, k):
        with pytest.raises(InvalidPairError):
            index_pair(k, 5)

    @given(st.integers(2, 12))
    def test_roundtrip(self, n):
        for k in range(num_pairs(n)):
            i, j = index_pair(k, n)
            assert pair_index(i, j, n) == k

    def test_num_logical(self):
        for n in range(2, 30):
            assert num_logical(num_pairs(n)) == n
        for k in (0, 2, 4, 5, 7, 8, 11):
            with pytest.raises(DimensionError):
                num_logical(k)


class TestEncode:
    def test_known_word(self):
        assert encode("10000").tolist() == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        assert encode("011").tolist() == [1, 1, 0]
        assert encode([0, 0]).tolist() == [0]

    def test_length(self):
        for n in (2, 5, 11):
            assert encode(np.zeros(n, dtype=np.uint8)).size == num_pairs(n)

    def test_too_short(self):
        with pytest.raises(DimensionError):
            encode([1])
        with pytest.raises(DimensionError):
            encode(np.zeros((3, 1), dtype=np.uint8))

    @given(st.integers(2, 9), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_batch_equals_rows(self, n, trials, seed):
        b = np.random.default_rng(seed).integers(0, 2, size=(trials, n))
        g = encode(b)
        assert g.shape == (trials, num_pairs(n)) and g.dtype == np.uint8
        for row, word in zip(b, g):
            assert (encode(row) == word).all()

    @given(bit_words)
    def test_global_flip_invariance(self, bits):
        b = np.array(bits, dtype=np.uint8)
        assert (encode(b) == encode(1 - b)).all()

    @given(bit_words)
    def test_pairwise_definition(self, bits):
        b = np.array(bits, dtype=np.uint8)
        g = encode(b)
        for k in range(g.size):
            i, j = index_pair(k, b.size)
            assert g[k] == b[i - 1] ^ b[j - 1]

    @pytest.mark.parametrize("n", range(2, 42))
    def test_batches_match_the_pair_definition(self, n):
        # g_ij = b_i xor b_j pair by pair, for empty, small and 1024-row batches
        # and one word; batches come back column-major, the order
        # _majority_batch gathers columns from fastest
        i, j = (np.array(side) - 1 for side in zip(*pair_table(n)))
        rng = np.random.default_rng(n)
        for rows in (0, 1, 7, 1024):
            b = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
            g = encode(b)
            assert g.shape == (rows, num_pairs(n)) and g.dtype == np.uint8 and g.flags.f_contiguous
            assert np.array_equal(g, b[:, i] ^ b[:, j])
        word = rng.integers(0, 2, size=n, dtype=np.uint8)
        g = encode(word)
        assert g.shape == (num_pairs(n),) and g.dtype == np.uint8
        assert np.array_equal(g, word[i] ^ word[j])


class TestReadout:
    @given(bit_words)
    def test_gauge_fixed_inverse(self, bits):
        b = np.array(bits, dtype=np.uint8)
        r = logical_readout(encode(b))
        assert r[0] == 0
        assert (encode(r) == encode(b)).all()
        assert (r == (b ^ b[0])).all()

    def test_known(self):
        assert logical_readout(encode("10000")).tolist() == [0, 1, 1, 1, 1]

    def test_rejects_non_pair_length(self):
        with pytest.raises(DimensionError):
            logical_readout([0, 1])


class TestConsecutive:
    def test_indices(self):
        assert consecutive_indices(4).tolist() == [0, 3, 5]
        assert consecutive_indices(2).tolist() == [0]

    @given(bit_words)
    def test_matches_adjacent_xor(self, bits):
        b = np.array(bits, dtype=np.uint8)
        assert (consecutive_bits(encode(b)) == (b[:-1] ^ b[1:])).all()

    @given(bit_words)
    def test_chain_roundtrip(self, bits):
        b = np.array(bits, dtype=np.uint8)
        c = consecutive_bits(encode(b))
        chained = logical_from_consecutive(c)
        assert (chained == (b ^ b[0])).all()
        assert (consecutive_bits(encode(chained)) == c).all()

    def test_gauge_invariant_equality(self):
        # words agreeing on the consecutive slice agree logically
        b = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert (consecutive_bits(encode(b)) == consecutive_bits(encode(1 - b))).all()


class TestAsBits:
    def test_accepts(self):
        assert as_bits("0110").dtype == np.uint8
        assert as_bits([1, 0]).tolist() == [1, 0]
        assert as_bits(np.array([1.0, 0.0])).tolist() == [1, 0]

    def test_rejects(self):
        with pytest.raises(ConfigError):
            as_bits("01x")
        with pytest.raises(ConfigError):
            as_bits([0, 2])
        with pytest.raises(DimensionError):
            as_bits([[0, 1]])
        with pytest.raises(DimensionError):
            as_bits([[[0, 1]]], batch=True)
        assert as_bits([[0, 1]], batch=True).shape == (1, 2)

    @pytest.mark.parametrize("bad", [
        np.array([0, -1]), np.array([[1, 0], [0, -3]], dtype=np.int8), np.array([0, 2], dtype=np.uint8),
        np.array([1, 255], dtype=np.uint8), np.array([0.5, 1.0]), np.array([1, 2**40]),
    ], ids=["negative-int", "negative-int8", "two-uint8", "255-uint8", "half-float", "large-int"])
    def test_rejects_values(self, bad):
        with pytest.raises(ConfigError, match="bits must be 0 or 1"):
            as_bits(bad, batch=True)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.uint64, np.float64])
    def test_every_dtype_gives_a_uint8_copy(self, dtype):
        a = np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype)
        out = as_bits(a, batch=True)
        assert out.dtype == np.uint8 and out.tolist() == [[0, 1, 1], [1, 0, 0]]
        assert not np.shares_memory(out, a)
        assert as_bits(np.zeros((3, 0), dtype=dtype), batch=True).shape == (3, 0)
