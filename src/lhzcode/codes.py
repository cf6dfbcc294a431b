"""Pairwise-parity encoding of n logical bits into k = n(n-1)/2 physical bits.

Physical bit g_ij = b_i xor b_j for every unordered pair 1 <= i < j <= n.
Pairs are laid out in row-major upper-triangular order:

    (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n)

which matches np.triu_indices(n, 1). The map b -> g is 2-to-1 (b and its
complement encode the same word), so logical readout fixes the gauge b_1 = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionError, InvalidPairError, check_count, check_type

__all__ = [
    "num_pairs",
    "num_logical",
    "pair_index",
    "index_pair",
    "pair_table",
    "as_bits",
    "encode",
    "consecutive_indices",
    "logical_from_consecutive",
]

# Largest n whose k = n(n-1)/2 fits np.intp; words and pair tables need it.
MAX_N = (1 + math.isqrt(1 + 8 * int(np.iinfo(np.intp).max))) // 2


def num_pairs(n: int) -> int:
    """Number of physical bits for n logical bits."""
    n = check_count("n", n, 2)
    return n * (n - 1) // 2


def num_logical(k: int) -> int:
    """Invert k = n(n-1)/2. Raises DimensionError if k is not a pair count."""
    k = check_count("k", k, 0)
    n = (1 + math.isqrt(1 + 8 * k)) // 2
    if n < 2 or num_pairs(n) != k:
        raise DimensionError(f"word length {k} is not n(n-1)/2 for any n >= 2")
    return n


def pair_index(i: int, j: int, n: int) -> int:
    """Linear index of the pair (i, j) with 1 <= i < j <= n."""
    i, j, n = (check_count(name, v) for name, v in (("i", i), ("j", j), ("n", n)))
    if not 1 <= i < j <= n:
        raise InvalidPairError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return _pair_ids(i, j, n)


def _pair_ids(i, j, n):
    """pair_index without its checks, for ints or integer arrays alike."""
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def index_pair(k: int, n: int) -> tuple[int, int]:
    """Pair (i, j) sitting at linear index k; inverse of pair_index."""
    k, n = check_count("k", k), check_count("n", n, 2)
    if not 0 <= k < num_pairs(n):
        raise InvalidPairError(f"index {k} out of range for n={n} ({num_pairs(n)} pairs)")
    # Row i is the least with (n-i)(n-i+1)/2 above the count of pairs after k.
    i = n - (math.isqrt(8 * (num_pairs(n) - 1 - k) + 1) + 1) // 2
    return i, k - (i - 1) * (2 * n - i) // 2 + i + 1


def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), 1 <= i < j <= n, in linear index order."""
    n = check_count("n", n, 2, MAX_N)
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(n, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def as_bits(seq, *, batch: bool = False) -> np.ndarray:
    """Coerce to a 1-D uint8 array of 0/1, or with batch=True also to a 2-D
    (rows, bits) one. Accepts strings like "0110"."""
    check_type("batch", batch, bool)
    if isinstance(seq, str):
        if not set(seq) <= {"0", "1"}:
            raise ConfigError(f"bit string may only contain 0 and 1, got {seq!r}")
        seq = [int(c) for c in seq]
    try:
        a = np.asarray(seq)
    except ValueError:
        raise ConfigError("bits must form a rectangular array") from None
    if a.ndim != 1 and not (batch and a.ndim == 2):
        raise DimensionError(f"expected a 1-D bit sequence{' or a 2-D batch' if batch else ''}, got shape {a.shape}")
    if np.issubdtype(a.dtype, np.integer):  # one min and one max, no per-element masks
        ok = a.size == 0 or (a.min() >= 0 and a.max() <= 1)
    else:
        ok = a.dtype == bool or np.all((a == 0) | (a == 1))
    if not ok:
        raise ConfigError("bits must be 0 or 1")
    return a.astype(np.uint8)  # always a copy, which apply_iid_flip flips in place


def encode(bits) -> np.ndarray:
    """Physical word g with g_ij = b_i xor b_j, in pair index order; a
    (trials, n) batch of logical words gives their (trials, k) words, in
    column-major order.

    The bits go in as (n, trials) rows: one outer xor makes every (i, j)
    row of trials, and one take along axis 0 keeps the k rows with i < j,
    contiguous, so the batch is their transpose."""
    b = as_bits(bits, batch=True)
    n = b.shape[-1]
    if n < 2:
        raise DimensionError(f"need at least 2 logical bits, got {n}")
    iu, ju = _triu(n)
    bt = np.ascontiguousarray(b.T).reshape(n, -1)
    outer = np.bitwise_xor(bt[:, None], bt[None, :]).reshape(n * n, -1)
    g = np.take(outer, iu * n + ju, axis=0)
    return g.T if b.ndim == 2 else g[:, 0]


def consecutive_indices(n: int) -> np.ndarray:
    """Linear indices of the consecutive pairs (1,2), (2,3), ..., (n-1,n)."""
    n = check_count("n", n, 2, MAX_N)
    i = np.arange(1, n, dtype=np.intp)
    return _pair_ids(i, i + 1, n)


def logical_from_consecutive(c) -> np.ndarray:
    """Chain consecutive parities into the gauge-fixed logical word.

    b_1 = 0 and b_(i+1) = b_i xor c_i, so b_j is the running xor of
    c_1 .. c_(j-1).
    """
    c = as_bits(c)
    b = np.zeros(c.size + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(c, out=b[1:])
    return b
