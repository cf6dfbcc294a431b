"""Seeded Monte Carlo estimation of logical failure rates, plus analytic bounds.

One trial: draw a logical word, encode, push the physical word through the
i.i.d. flip channel, decode, and compare the decoded consecutive bits with
the true ones. That comparison is gauge invariant, so the estimate does not
depend on which of the two logical preimages the decoder lands on.

Each cell reads its bits and flips from two RNG streams keyed by (seed,
decoder id, n, eps index), trial after trial, so results are prefix-stable
in trials and byte-identical under any block size, cell order, or threads.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import NoiseModel, apply_iid_flip, check_epsilon, stream
from .codes import consecutive_indices, encode, num_pairs
from .decoders import (
    SCHEDULES,
    _bp_batch,
    _majority_batch,
    _mle_batch,
    epsilon_star,
)
from .errors import CapacityError, ConfigError
from .factor_graph import FactorGraph, planar_lhz_graph, triangle_graph

__all__ = [
    "DECODER_IDS",
    "GRAPH_KINDS",
    "chernoff_bound",
    "union_bound",
    "SimConfig",
    "graph_for",
    "SimResult",
    "CellError",
    "SweepResult",
    "run_cell",
    "run_sweep",
]

# Stable ids folded into the RNG key so decoders never share noise unless asked.
DECODER_IDS = {"majority": 1, "bp": 2, "mle": 3}
_GRAPHS = {"triangle": triangle_graph, "planar": planar_lhz_graph}
GRAPH_KINDS = tuple(_GRAPHS)

_SHARED_ID = 0          # decoder slot in the RNG key when noise is shared
_BITS, _FLIPS = 0, 1    # purpose slot in the RNG key: logical bits, flips
_DRAW_BLOCK = 1024      # trials per encode/flip call, keeps the uniforms ~6 MB at n=40
_BP_TRIAL_CHUNK = 32    # trials per message-passing batch, keeps its per-edge arrays ~8 MB at n=40


def _check_count(name: str, value, least: int) -> None:
    """The one rule for sizes, counts and keys: an integer (not a bool or a
    float) of at least `least`. A pairwise-parity word needs n >= 2."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"need an integer {name} >= {least}, got {value!r}")


def chernoff_bound(n: int, epsilon: float) -> float:
    """Analytic bound on one consecutive bit's majority failure.

    exp(-2 (n-2) (1/2 - eps*)^2) with eps* = 2 eps (1 - eps): Hoeffding on
    the n-2 indirect votes, each an independent two-bit parity.
    """
    _check_count("n", n, 2)
    es = epsilon_star(epsilon)
    return math.exp(-2.0 * (n - 2) * (0.5 - es) ** 2)


def union_bound(n: int, epsilon: float) -> float:
    """(n-1) times the per-bit bound: any of the consecutive bits failing.

    Values above 1 are returned as-is; a vacuous bound is still a bound.
    """
    return (n - 1) * chernoff_bound(n, epsilon)


@dataclass(frozen=True)
class SimConfig:
    """One sweep: every decoder at every (n, epsilon) cell.

    The single place the sweep and cell settings are validated; run_cell
    builds a one-cell config for the same checks. Raises ConfigError.
    """

    n_values: tuple[int, ...]
    eps_values: tuple[float, ...]
    decoders: tuple[str, ...] = ("bp",)
    trials: int = 5000
    seed: int = 0
    graph: str = "triangle"
    bp_iterations: int = 5
    schedule: str = "belief"
    include_direct: bool = False
    all_zero: bool = False
    shared_noise: bool = False

    def __post_init__(self):
        if not self.n_values:
            raise ConfigError("n_values is empty")
        for n in self.n_values:
            _check_count("n", n, 2)
        if not self.eps_values:
            raise ConfigError("eps_values is empty")
        for e in self.eps_values:
            check_epsilon(e)
        if not self.decoders:
            raise ConfigError("decoders is empty")
        for d in self.decoders:
            if d not in DECODER_IDS:
                raise ConfigError(f"unknown decoder {d!r}, expected one of {sorted(DECODER_IDS)}")
        _check_count("trials", self.trials, 1)
        k = num_pairs(max(self.n_values))
        if self.trials > np.iinfo(np.intp).max // k:
            raise ConfigError(f"{self.trials} trials of {k} bits is more than one array can hold")
        _check_count("seed", self.seed, 0)
        if self.graph not in GRAPH_KINDS:
            raise ConfigError(f"unknown graph {self.graph!r}, expected one of {GRAPH_KINDS}")
        _check_count("bp_iterations", self.bp_iterations, 1)
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}, expected one of {SCHEDULES}")


@dataclass(frozen=True)
class SimResult:
    """Estimate for one (decoder, n, epsilon) cell.

    failures counts trials whose decoded consecutive bits differ anywhere
    from the true ones. pair_failures counts mistakes on the first
    consecutive bit alone, which is the quantity the analytic per-bit
    bound speaks about. stderr is the Wald standard error, replaced by
    the rule-of-three upper bound 3/trials when nothing failed.
    """

    decoder: str
    graph: str
    n: int
    epsilon: float
    iterations: int
    trials: int
    failures: int
    p_fail: float
    stderr: float
    chernoff: float
    union_bound: float
    seed: int
    pair_failures: int = field(default=0, compare=False)

    @property
    def pair_fail_rate(self) -> float:
        return self.pair_failures / self.trials


@dataclass(frozen=True)
class CellError:
    """A cell the sweep had to skip, with the reason."""

    decoder: str
    n: int
    epsilon: float
    message: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SimResult, ...]
    errors: tuple[CellError, ...]


@lru_cache(maxsize=None)
def graph_for(kind: str, n: int) -> FactorGraph:
    """The constraint graph message passing runs on for a kind and size."""
    if kind not in _GRAPHS:
        raise ConfigError(f"unknown graph {kind!r}, expected one of {GRAPH_KINDS}")
    _check_count("n", n, 2)
    if n == 2:
        # Single variable, nothing to constrain; message passing degenerates
        # to reading the channel prior, which is the right answer.
        return FactorGraph(1, ())
    return _GRAPHS[kind](n)


def _draw_words(
    n: int, epsilon: float, trials: int, seed: int, decoder_slot: int, eps_index: int, all_zero: bool
) -> tuple[np.ndarray, np.ndarray]:
    """True and observed (trials, k) physical words of one cell.

    Trial t reads uniforms [t*n, (t+1)*n) of the bits stream (bit = u < 1/2)
    and [t*k, (t+1)*k) of the flips stream. One uniform is one 64-bit output,
    so drawing _DRAW_BLOCK rows at a time gives the bytes of one whole draw.
    """
    model = NoiseModel(epsilon)
    bits_rng = stream(seed, decoder_slot, n, eps_index, _BITS)
    flips_rng = stream(seed, decoder_slot, n, eps_index, _FLIPS)
    true = np.empty((trials, num_pairs(n)), dtype=np.uint8)
    obs = np.empty_like(true)
    for lo in range(0, trials, _DRAW_BLOCK):
        rows = min(_DRAW_BLOCK, trials - lo)
        if all_zero:
            b = np.zeros((rows, n), dtype=np.uint8)
        else:
            b = bits_rng.random((rows, n)) < 0.5
        true[lo : lo + rows] = g = encode(b)
        obs[lo : lo + rows] = apply_iid_flip(g, model, flips_rng)
    return true, obs


def _decode_consecutive(
    obs: np.ndarray,
    n: int,
    epsilon: float,
    decoder: str,
    graph: str,
    bp_iterations: int,
    schedule: str,
    include_direct: bool,
) -> np.ndarray:
    """Decoded consecutive bits for a whole batch, (trials, n-1)."""
    if decoder == "majority":
        return _majority_batch(obs, n, include_direct)
    if decoder == "mle":
        b = _mle_batch(obs, n)
        return b[:, :-1] ^ b[:, 1:]
    fg = graph_for(graph, n)
    cons_idx = consecutive_indices(n)
    out = np.empty((obs.shape[0], n - 1), dtype=np.uint8)
    for lo in range(0, obs.shape[0], _BP_TRIAL_CHUNK):
        chunk = obs[lo : lo + _BP_TRIAL_CHUNK]
        p0 = np.where(chunk == 0, 1.0 - epsilon, epsilon)
        _, hard, _ = _bp_batch(fg, p0, chunk, bp_iterations, schedule)
        out[lo : lo + _BP_TRIAL_CHUNK] = hard[:, cons_idx]
    return out


def run_cell(
    n: int,
    epsilon: float,
    decoder: str,
    trials: int,
    seed: int,
    *,
    eps_index: int = 0,
    graph: str = "triangle",
    bp_iterations: int = 5,
    schedule: str = "belief",
    include_direct: bool = False,
    all_zero: bool = False,
    shared_noise: bool = False,
) -> SimResult:
    """Monte Carlo failure estimate for one (decoder, n, epsilon) cell.

    The noise comes from two streams keyed by (seed, decoder id, n,
    eps_index), read trial after trial, so the result is independent of
    scheduling. shared_noise drops the decoder id from the key: every
    decoder then sees the exact same logical words and flip patterns,
    which makes paired comparisons sharp. The settings are checked by the
    one-cell SimConfig they make up, so bad input raises ConfigError
    before any trial runs.
    """
    SimConfig(
        n_values=(n,),
        eps_values=(epsilon,),
        decoders=(decoder,),
        trials=trials,
        seed=seed,
        graph=graph,
        bp_iterations=bp_iterations,
        schedule=schedule,
        include_direct=include_direct,
        all_zero=all_zero,
        shared_noise=shared_noise,
    )
    _check_count("eps_index", eps_index, 0)
    decoder_slot = _SHARED_ID if shared_noise else DECODER_IDS[decoder]
    true, obs = _draw_words(n, epsilon, trials, seed, decoder_slot, eps_index, all_zero)
    decoded = _decode_consecutive(obs, n, epsilon, decoder, graph, bp_iterations, schedule, include_direct)
    truth = true[:, consecutive_indices(n)]
    failed = (decoded != truth).any(axis=1)
    failures = int(failed.sum())
    p_fail = failures / trials
    if failures == 0:
        stderr = 3.0 / trials
    else:
        stderr = math.sqrt(p_fail * (1.0 - p_fail) / trials)
    return SimResult(
        decoder=decoder,
        graph=graph,
        n=n,
        epsilon=epsilon,
        iterations=bp_iterations if decoder == "bp" else 0,
        trials=trials,
        failures=failures,
        p_fail=p_fail,
        stderr=stderr,
        chernoff=chernoff_bound(n, epsilon),
        union_bound=union_bound(n, epsilon),
        seed=seed,
        pair_failures=int((decoded[:, 0] != truth[:, 0]).sum()),
    )


def run_sweep(config: SimConfig, threads: int = 1) -> SweepResult:
    """Run every cell of the sweep, in (decoder, n, epsilon) row order.

    Cells are independent, so they may be farmed out to worker threads,
    at most one per cell and per CPU; results are collected back in the
    deterministic row order either way.
    A decoder hitting its capacity limit yields a CellError instead of
    aborting the sweep.
    """
    cells = [
        (dec, n, ei, eps)
        for dec in config.decoders
        for n in config.n_values
        for ei, eps in enumerate(config.eps_values)
    ]

    def one(cell):
        dec, n, ei, eps = cell
        try:
            return run_cell(
                n,
                eps,
                dec,
                config.trials,
                config.seed,
                eps_index=ei,
                graph=config.graph,
                bp_iterations=config.bp_iterations,
                schedule=config.schedule,
                include_direct=config.include_direct,
                all_zero=config.all_zero,
                shared_noise=config.shared_noise,
            )
        except CapacityError as exc:
            return CellError(decoder=dec, n=n, epsilon=eps, message=str(exc))

    if threads < 1:
        raise ConfigError(f"threads must be positive, got {threads}")
    workers = min(threads, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, cells))
    else:
        outcomes = [one(c) for c in cells]
    rows = tuple(o for o in outcomes if isinstance(o, SimResult))
    errors = tuple(o for o in outcomes if isinstance(o, CellError))
    return SweepResult(rows=rows, errors=errors)
