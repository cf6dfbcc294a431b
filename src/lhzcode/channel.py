"""I.i.d. symmetric bit-flip readout noise, and reproducible RNG streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import as_bits
from .errors import ConfigError

__all__ = ["check_epsilon", "NoiseModel", "stream", "apply_iid_flip", "channel_prior"]


def check_epsilon(epsilon: float) -> None:
    """The one flip-probability rule: epsilon must lie in [0, 1/2]."""
    if not 0.0 <= epsilon <= 0.5:
        raise ConfigError(f"epsilon must lie in [0, 1/2], got {epsilon}")


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
    key = (int(master_seed), len(subkeys)) + tuple(int(s) for s in subkeys)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def apply_iid_flip(g, model: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Observed word: each bit of g flipped independently with prob epsilon.

    g is one word or a (trials, k) batch of words. Draws exactly g.size
    uniforms from rng, in row-major order, so a batch flips the same bits
    as its rows flipped one after another from the same rng.
    """
    g = as_bits(g, batch=True)
    return g ^ (rng.random(g.shape) < model.epsilon)


def channel_prior(g_obs, model: NoiseModel) -> np.ndarray:
    """Per-variable (p0, p1) rows: the observed value holds with prob 1 - epsilon."""
    g = as_bits(g_obs)
    p0 = np.where(g == 0, 1.0 - model.epsilon, model.epsilon)
    return np.stack([p0, 1.0 - p0], axis=1)
