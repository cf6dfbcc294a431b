"""I.i.d. symmetric bit-flip readout noise, and reproducible RNG streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import as_bits
from .errors import check_count, check_epsilon, check_type

__all__ = ["NoiseModel", "stream", "apply_iid_flip", "channel_prior"]

_FLIP_CHUNK = 32768  # raw 64-bit outputs drawn and thresholded at a time by apply_iid_flip


@dataclass(frozen=True)
class NoiseModel:
    """Each readout bit flips independently with probability epsilon, kept
    as a Python float whatever real type it was given as."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))  # the dataclass is frozen


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
    The raw outputs are drawn and thresholded _FLIP_CHUNK (256 KiB) at a time
    into a one-byte mask per half, so a batch never holds its raw outputs
    whole: 1024 words at n = 40 hold 0.8 MiB of mask, not 3.0 MiB of raw
    outputs. The chunk size changes no output bit and no rng state.
    """
    check_type("model", model, NoiseModel)
    check_type("rng", rng, np.random.Generator)
    g = as_bits(g, batch=True)  # a fresh array, flipped in place below
    *rows, k = g.shape
    words = (k + 1) // 2
    outputs, thr = math.prod(rows) * words, np.uint32(round(model.epsilon * 2**32))
    mask = np.empty(2 * outputs, dtype=bool)
    for lo in range(0, outputs, _FLIP_CHUNK):
        # Little-endian uint64 seen as uint32 pairs puts the low half first on
        # any host: a no-op on little-endian ones, a byteswap on big-endian ones.
        chunk = rng.bit_generator.random_raw(min(_FLIP_CHUNK, outputs - lo))
        np.less(chunk.astype("<u8", copy=False).view("<u4"), thr, out=mask[2 * lo : 2 * (lo + chunk.size)])
    # The flips are copied into g's memory order first (encode's words are
    # column-major): numpy xors two arrays of different orders far slower.
    flips = np.empty_like(g, dtype=bool)
    np.copyto(flips, mask.reshape(*rows, 2 * words)[..., :k])
    g ^= flips
    return g


def _prior_p0(bits: np.ndarray, epsilon: float) -> np.ndarray:
    """The prior p0 of each observed 0/1 bit, as float64 of bits' shape: the
    observed value holds with prob 1 - epsilon, so p0 is 1 - epsilon where
    the bit is 0 and epsilon where it is 1. It is picked by float64 bit
    pattern, np.where's bytes in a fifth of its time (21 against 115 us at
    planar n=40 and 32 trials; timeit, 2 vCPUs)."""
    hi, lo = np.array([1.0 - epsilon, epsilon]).view(np.uint64)
    p0 = bits.astype(np.uint64)
    p0 *= hi ^ lo
    p0 ^= hi
    return p0.view(np.float64)


def channel_prior(g_obs, model: NoiseModel) -> np.ndarray:
    """Per-variable (p0, p1) rows: the observed value holds with prob 1 - epsilon."""
    check_type("model", model, NoiseModel)
    p0 = _prior_p0(as_bits(g_obs), model.epsilon)
    return np.stack([p0, 1.0 - p0], axis=1)
