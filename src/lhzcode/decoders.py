"""Three decoders for noisy pairwise-parity readout words.

majority_vote_decode  repairs each consecutive bit g_(i,i+1) from its n-2
                      two-bit parity votes g_ik xor g_jk.
bp_decode             loopy sum-product message passing on a factor graph.
mle_decode            exhaustive nearest-codeword search over the 2^(n-1)
                      gauge-fixed logical words.

All three report the decoded consecutive slice, which is the gauge-invariant
part of the answer, plus a full hard-decision word.

The batch kernels (_majority_batch, _bp_batch, _mle_batch) run many trials
at once as (trials, word) arrays; the Monte Carlo driver uses them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .channel import NoiseModel, check_epsilon
from .codes import (
    as_bits,
    consecutive_indices,
    encode,
    logical_from_consecutive,
    num_logical,
    num_pairs,
    pair_index,
)
from .errors import CapacityError, ConfigError, DimensionError, InconsistentEvidenceError
from .factor_graph import FactorGraph

__all__ = [
    "DecodeOutcome",
    "SCHEDULES",
    "MLE_MAX_LOGICAL",
    "epsilon_star",
    "majority_vote_decode",
    "bp_decode",
    "mle_decode",
]

SCHEDULES = ("belief", "extrinsic")

# 2^(n-1) candidates get enumerated; past this the search is hopeless anyway.
MLE_MAX_LOGICAL = 24


@dataclass
class DecodeOutcome:
    """What a decoder hands back for one observed word.

    consecutive  decoded bits g_(i,i+1), length n-1; None when the graph
                 is not a pairwise-parity layout (e.g. the Hamming fixture)
    word         full hard-decision physical word
    beliefs      final (p0, p1) per variable, message passing only
    iterations   update rounds actually run (0 for one-shot decoders)
    converged    hard decisions identical over the last two rounds
    degenerate   every candidate was equally likely (epsilon = 1/2 search)
    """

    consecutive: Optional[np.ndarray]
    word: np.ndarray
    beliefs: Optional[np.ndarray]
    iterations: int
    converged: bool
    degenerate: bool = False


def epsilon_star(epsilon: float) -> float:
    """Flip probability of a parity of two bits: 2 eps (1 - eps)."""
    check_epsilon(epsilon)
    return 2.0 * epsilon * (1.0 - epsilon)


# ---------------------------------------------------------------- majority

@lru_cache(maxsize=None)
def _vote_index_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (A, B), shape (n-1, n-2): vote k for target (i, i+1) is
    word[A] xor word[B] with A = index(i,k), B = index(i+1,k)."""
    a = np.empty((n - 1, n - 2), dtype=np.intp)
    b = np.empty((n - 1, n - 2), dtype=np.intp)
    for row, i in enumerate(range(1, n)):
        j = i + 1
        for col, k in enumerate(x for x in range(1, n + 1) if x not in (i, j)):
            a[row, col] = pair_index(min(i, k), max(i, k), n)
            b[row, col] = pair_index(min(j, k), max(j, k), n)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _majority_batch(words: np.ndarray, n: int, include_direct: bool) -> np.ndarray:
    """Majority decisions for the consecutive bits, (trials, n-1)."""
    observed = words[:, consecutive_indices(n)]
    if n == 2:
        return observed.copy()
    a, b = _vote_index_arrays(n)
    ones = (words[:, a] ^ words[:, b]).sum(axis=2, dtype=np.int64)
    total = n - 2
    if include_direct:
        ones = ones + observed
        total += 1
    return np.where(2 * ones > total, 1, np.where(2 * ones < total, 0, observed)).astype(np.uint8)


def majority_vote_decode(g_obs, *, include_direct: bool = False) -> DecodeOutcome:
    """Decode each consecutive pair by majority over its indirect parity votes.

    Target (i, i+1) collects the n-2 votes g_ik xor g_(i+1,k), one per k
    outside the pair; ties fall back to the observed g_(i,i+1) itself.
    include_direct adds the observed bit as one more vote. The full word
    is re-encoded from the chained consecutive decisions, so it is always
    a codeword.
    """
    g = as_bits(g_obs)
    n = num_logical(g.size)
    cons = _majority_batch(g[None, :], n, include_direct)[0]
    word = encode(logical_from_consecutive(cons))
    return DecodeOutcome(consecutive=cons, word=word, beliefs=None, iterations=0, converged=True)


# ---------------------------------------------------------- message passing

class _BpLayout(NamedTuple):
    checks: np.ndarray    # (n_checks, max_weight) variable indices, padded with n_vars
    slot_var: np.ndarray  # checks.ravel(): the variable each slot points at
    adj: np.ndarray       # (n_vars, max_degree) slot indices, padded with checks.size


@lru_cache(maxsize=None)
def _bp_layout(graph: FactorGraph) -> _BpLayout:
    """Flattened message layout: one padded check table, one slot per entry.

    Slot (check*max_weight + position) holds the message from that check to
    the variable at that position. Short checks are padded with a phantom
    variable n_vars whose bias is held at 1, so it leaves every exclusive
    product unchanged. The padded adjacency gathers each real variable's
    slots in check order; its padding points at the extra slot checks.size,
    whose message stays 0.
    """
    w = max((len(c) for c in graph.checks), default=1)
    checks = np.full((graph.n_checks, w), graph.n_vars, dtype=np.intp)
    for ci, c in enumerate(graph.checks):
        checks[ci, : len(c)] = c
    checks.setflags(write=False)
    incoming: list[list[int]] = [[] for _ in range(graph.n_vars + 1)]
    for s, v in enumerate(checks.ravel().tolist()):
        incoming[v].append(s)
    incoming.pop()  # the phantom's slots are never read
    dmax = max((len(s) for s in incoming), default=0)
    adj = np.full((graph.n_vars, max(dmax, 1)), checks.size, dtype=np.intp)
    for v, slots in enumerate(incoming):
        adj[v, : len(slots)] = slots
    adj.setflags(write=False)
    return _BpLayout(checks, checks.ravel(), adj)


def _exclusive_prod(x: np.ndarray) -> np.ndarray:
    """Along the last axis: product of all entries except the one in place."""
    left = np.ones_like(x)
    right = np.ones_like(x)
    if x.shape[-1] > 1:
        np.cumprod(x[..., :-1], axis=-1, out=left[..., 1:])
        np.cumprod(x[..., :0:-1], axis=-1, out=right[..., -2::-1])
    return left * right


def _exclusive_sum(x: np.ndarray) -> np.ndarray:
    """Along the last axis: sum of all entries except the one in place.

    Built from prefix/suffix sums, no subtraction, so infinite entries
    poison only the positions that should see them.
    """
    left = np.zeros_like(x)
    right = np.zeros_like(x)
    if x.shape[-1] > 1:
        np.cumsum(x[..., :-1], axis=-1, out=left[..., 1:])
        np.cumsum(x[..., :0:-1], axis=-1, out=right[..., -2::-1])
    return left + right


def _hard(p0: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Hard decisions from p0; exact ties keep the observed bit."""
    return np.where(p0 > 0.5, 0, np.where(p0 < 0.5, 1, observed)).astype(np.uint8)


# Iterated beliefs are clamped one ulp inside (0, 1), and extrinsic biases to
# the matching bound on d = 2 p0 - 1. Saturation then never manufactures
# exactly-hard messages, so cancelled mass can only come from genuinely
# contradictory hard priors.
_CLAMP = 2.0 ** -53
_BIAS_MAX = 1.0 - 2.0 * _CLAMP


def _bp_batch(
    graph: FactorGraph,
    p0: np.ndarray,
    observed: np.ndarray,
    iterations: int,
    schedule: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run message passing on a (trials, n_vars) batch.

    Returns (final p0, hard words, converged flags). All trials run the
    full iteration count; the flag just records whether the last round
    still changed anything. Every message is one log-likelihood ratio
    log(p0/p1) per edge slot: a check sends log1p(d) - log1p(-d) for the
    exclusive product d of its other neighbours' biases (the tanh rule),
    and a variable sums its prior LLR with its incoming ones, so
    high-degree graphs cannot underflow.
    """
    layout = _bp_layout(graph)
    t, nv = p0.shape
    p0 = p0.astype(np.float64, copy=True)
    with np.errstate(divide="ignore"):
        lprior = np.log(p0) - np.log1p(-p0)
    # One LLR log(p0/p1) per slot; the trailing pad slot stays 0 so padded
    # adjacency rows contribute nothing.
    msg = np.zeros((t, layout.slot_var.size + 1))
    # Bias d = p0 - p1 per variable plus the phantom, whose bias stays 1.
    bias = np.ones((t, nv + 1))
    bias[:, :nv] = 2.0 * p0 - 1.0
    if schedule == "extrinsic":
        # Variable-to-check bias per slot (the message travelling against the
        # slot's direction), starting at the prior; the extra slot takes the
        # padded adjacency's writes.
        mu_d = np.ones((t, layout.slot_var.size + 1))
        mu_d[:, :-1] = bias[:, layout.slot_var]
    hard_prev = _hard(p0, observed)
    converged = np.ones(t, dtype=bool)
    for _ in range(iterations):
        if schedule == "belief":
            bias[:, :nv] = 2.0 * p0 - 1.0
            dn = bias[:, layout.checks]
        else:
            dn = mu_d[:, :-1].reshape(t, *layout.checks.shape)
        out_d = _exclusive_prod(dn).reshape(t, layout.slot_var.size)
        with np.errstate(divide="ignore"):
            msg[:, :-1] = np.log1p(out_d) - np.log1p(-out_d)
        g = msg[:, layout.adj]
        with np.errstate(invalid="ignore"):
            llr = lprior + g.sum(axis=2)
        # +inf meeting -inf: hard evidence for both values of one variable.
        if np.isnan(llr).any():
            raise InconsistentEvidenceError("conflicting hard evidence wiped out both hypotheses")
        with np.errstate(over="ignore"):
            p0 = 1.0 / (1.0 + np.exp(-llr))
        np.clip(p0, _CLAMP, 1.0 - _CLAMP, out=p0)
        if schedule == "extrinsic":
            le = lprior[:, :, None] + _exclusive_sum(g)
            mu_d[:, layout.adj] = np.clip(np.tanh(le / 2.0), -_BIAS_MAX, _BIAS_MAX)
        hard = _hard(p0, observed)
        converged = (hard == hard_prev).all(axis=1)
        hard_prev = hard
    return p0, hard_prev, converged


def bp_decode(
    graph: FactorGraph,
    priors,
    iterations: int = 5,
    schedule: str = "belief",
    observed=None,
) -> DecodeOutcome:
    """Iterative sum-product decoding of one word on the given graph.

    priors is the (n_vars, 2) channel belief table. observed supplies the
    tie-breaking word for hard decisions; by default it is the prior's own
    hard reading (ties there fall to 0).

    Schedules:
      belief     checks read the current posterior beliefs of their other
                 neighbors, and every variable multiplies its original
                 channel prior by all incoming messages. Feedback through
                 re-used beliefs spreads information two hops per round.
      extrinsic  standard sum-product: what a variable tells a check
                 excludes that check's own previous message. Exact on
                 cycle-free graphs once messages have crossed the diameter.
    """
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (graph.n_vars, 2):
        raise DimensionError(f"priors must have shape ({graph.n_vars}, 2), got {priors.shape}")
    if not np.allclose(priors.sum(axis=1), 1.0, atol=1e-9):
        raise ConfigError("each prior row must sum to 1")
    if iterations < 1:
        raise ConfigError(f"iterations must be positive, got {iterations}")
    if schedule not in SCHEDULES:
        raise ConfigError(f"unknown schedule {schedule!r}, expected one of {SCHEDULES}")
    p0 = priors[:, 0][None, :]
    if observed is None:
        obs = (priors[:, 0] < 0.5).astype(np.uint8)[None, :]
    else:
        obs = as_bits(observed)[None, :]
        if obs.size != graph.n_vars:
            raise DimensionError(f"observed word length {obs.size} does not match {graph.n_vars}")
    p0f, hard, conv = _bp_batch(graph, p0, obs, iterations, schedule)
    word = hard[0]
    try:
        cons = word[consecutive_indices(num_logical(graph.n_vars))]
    except DimensionError:
        cons = None
    beliefs = np.stack([p0f[0], 1.0 - p0f[0]], axis=1)
    return DecodeOutcome(
        consecutive=cons,
        word=word,
        beliefs=beliefs,
        iterations=iterations,
        converged=bool(conv[0]),
    )


# --------------------------------------------------------------------- mle

def _counter_bits(counters: np.ndarray, n: int) -> np.ndarray:
    """Gauge-fixed logical words for candidate counters.

    Candidate c has b_1 = 0 and b_j = bit (n - j) of c, so counter order
    is lexicographic order of the words.
    """
    bits = np.zeros((counters.size, n), dtype=np.uint8)
    shifts = np.arange(n - 2, -1, -1, dtype=np.int64)
    bits[:, 1:] = (counters[:, None] >> shifts) & 1
    return bits


def _mle_batch(words: np.ndarray, n: int) -> np.ndarray:
    """Nearest-codeword logical words for a (trials, k) batch.

    Ties resolve to the lexicographically smallest candidate: counters run
    in lex order and only strictly smaller distances displace the holder.
    """
    t, k = words.shape
    total = 1 << (n - 1)
    chunk = max(64, min(total, 64_000_000 // max(1, t * k)))
    best_d = np.full(t, k + 1, dtype=np.int64)
    best_c = np.zeros(t, dtype=np.int64)
    iu, ju = np.triu_indices(n, 1)
    for lo in range(0, total, chunk):
        bits = _counter_bits(np.arange(lo, min(lo + chunk, total), dtype=np.int64), n)
        cand_words = bits[:, iu] ^ bits[:, ju]
        dist = (words[:, None, :] != cand_words[None, :, :]).sum(axis=2, dtype=np.int64)
        arg = dist.argmin(axis=1)
        d = dist[np.arange(t), arg]
        better = d < best_d
        best_d[better] = d[better]
        best_c[better] = arg[better] + lo
    return _counter_bits(best_c, n)


def mle_decode(g_obs, model: NoiseModel) -> DecodeOutcome:
    """Exhaustive most-likely-codeword decode.

    For epsilon < 1/2 the most likely codeword is the nearest one in
    Hamming distance; distance ties resolve to the lexicographically
    smallest gauge-fixed logical word. At epsilon = 1/2 every candidate
    is equally likely, so the all-zero word is returned with the
    degenerate flag set.
    """
    g = as_bits(g_obs)
    n = num_logical(g.size)
    if n > MLE_MAX_LOGICAL:
        raise CapacityError(f"exhaustive search over 2^{n - 1} candidates exceeds n={MLE_MAX_LOGICAL}")
    if model.epsilon == 0.5:
        b = np.zeros(n, dtype=np.uint8)
        degenerate = True
    else:
        b = _mle_batch(g[None, :], n)[0]
        degenerate = False
    word = encode(b)
    return DecodeOutcome(
        consecutive=word[consecutive_indices(n)],
        word=word,
        beliefs=None,
        iterations=0,
        converged=True,
        degenerate=degenerate,
    )
