"""I.i.d. symmetric bit-flip readout noise, and reproducible RNG streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import as_bits
from .errors import check_count, check_epsilon, check_type

__all__ = ["NoiseModel", "stream", "apply_iid_flip", "channel_prior"]


@dataclass(frozen=True)
class NoiseModel:
    """Each readout bit flips independently with probability epsilon."""

    epsilon: float

    def __post_init__(self):
        check_epsilon(self.epsilon)


def stream(master_seed: int, *subkeys: int) -> np.random.Generator:
    """Independent PCG64 stream keyed by (master_seed, *subkeys).

    SeedSequence hashes the whole key tuple, so the same key always
    yields the same stream regardless of how many other streams exist
    or in which order they are created. The subkey count is folded in
    because SeedSequence zero-pads its entropy, which would otherwise
    alias (s,) with (s, 0). Keys must be nonnegative ints.
    """
    master_seed, *subkeys = (check_count("stream key", k, 0) for k in (master_seed, *subkeys))
    key = (master_seed, len(subkeys), *subkeys)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def apply_iid_flip(g, model: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Observed word: each bit of g flipped independently with prob thr / 2^32,
    where thr = round(epsilon * 2^32), so epsilon 0 and 1/2 are exact and any
    other rate is off by at most 2^-33.

    g is one word or a (trials, k) batch of words. Each word reads ceil(k/2)
    raw 64-bit outputs of rng's bit generator, in row-major order, and splits
    each into two 32-bit halves, low half first; bit j flips when half j is
    below thr, and an odd k drops its last half. So a batch flips the same
    bits as its rows flipped one after another from the same rng.
    """
    check_type("model", model, NoiseModel)
    check_type("rng", rng, np.random.Generator)
    g = as_bits(g, batch=True)  # a fresh array, flipped in place below
    *rows, k = g.shape
    words = (k + 1) // 2
    raw = rng.bit_generator.random_raw(math.prod(rows) * words)
    # Little-endian uint64 seen as uint32 pairs puts the low half first on any
    # host: a no-op on little-endian ones, a byteswap on big-endian ones.
    halves = raw.astype("<u8", copy=False).view("<u4").reshape(*rows, 2 * words)[..., :k]
    # The flips are copied into g's memory order first (encode's words are
    # column-major): numpy xors two arrays of different orders far slower.
    flips = np.empty_like(g, dtype=bool)
    np.copyto(flips, halves < np.uint32(round(model.epsilon * 2**32)))
    g ^= flips
    return g


def channel_prior(g_obs, model: NoiseModel) -> np.ndarray:
    """Per-variable (p0, p1) rows: the observed value holds with prob 1 - epsilon."""
    check_type("model", model, NoiseModel)
    g = as_bits(g_obs)
    p0 = np.where(g == 0, 1.0 - model.epsilon, model.epsilon)
    return np.stack([p0, 1.0 - p0], axis=1)
