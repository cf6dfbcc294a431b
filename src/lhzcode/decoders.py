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
from itertools import chain
from typing import Optional

import numpy as np

from .channel import NoiseModel
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
from .errors import check_choice, check_count, check_epsilon, check_type
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

@lru_cache(maxsize=None)
def _bp_layout(graph: FactorGraph) -> dict[str, np.ndarray]:
    """Variable-major partner tables, (max_weight - 1, n_vars, max_degree),
    by schedule: [j, v, k] is the j-th partner of variable v in its k-th
    check, in check order, as a variable u (belief) or as the edge
    u*max_degree + k' that u's message to that check comes from (extrinsic).
    The two indices past a table's variables or edges stand for bias 1,
    which pads short checks, and bias 0, which pads short adjacency rows,
    whose message is then 0."""
    nv, nc = graph.n_vars, graph.n_checks
    lens = np.fromiter(map(len, graph.checks), dtype=np.intp, count=nc)
    var = np.fromiter(chain.from_iterable(graph.checks), dtype=np.intp, count=int(lens.sum()))
    # Edge e is position pos[e] of check chk[e]. Edges run check-major, so a
    # stable sort by variable lists each variable's checks in check order.
    chk = np.repeat(np.arange(nc), lens)
    pos = np.arange(var.size) - np.repeat(np.cumsum(lens) - lens, lens)
    deg = np.bincount(var, minlength=nv)
    d_max, w = max(1, int(deg.max(initial=0))), max(2, int(lens.max(initial=0)))
    shift = np.arange(nv) * d_max - (np.cumsum(deg) - deg)  # edge id minus sorted place
    edge = np.empty_like(var)
    edge[np.argsort(var, kind="stable")] = np.arange(var.size) + np.repeat(shift, deg)
    # Position i's partners, the longer of its prefix and reversed suffix
    # first, so their left-to-right product rounds like a prefix times a
    # suffix product up to weight 4: (x3*x2)*x1, (x3*x2)*x0, (x0*x1)*x3, (x0*x1)*x2.
    fold = np.array([[*range(w - 1, i, -1), *range(i)] if 2 * i < w else [*range(i), *range(w - 1, i, -1)]
                     for i in range(w)], dtype=np.intp)

    def partners(index: np.ndarray, n_src: int) -> np.ndarray:
        table = np.full((nc, w), n_src)
        table[chk, pos] = index
        out = np.full((w - 1, nv * d_max), n_src + 1)
        out[:, edge] = table[chk[:, None], fold[pos]].T
        out.setflags(write=False)
        return out.reshape(w - 1, nv, d_max)

    return {"belief": partners(var, nv), "extrinsic": partners(edge, nv * d_max)}


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
    log(p0/p1) per edge: a check sends log1p(d) - log1p(-d) for the product
    d of its other neighbours' biases, read through the partner tables (the
    tanh rule), and a variable sums its prior LLR with its incoming ones, so
    high-degree graphs cannot underflow.
    """
    partners = _bp_layout(graph)[schedule]
    t, nv = p0.shape
    p0 = p0.astype(np.float64, copy=True)
    with np.errstate(divide="ignore"):
        lprior = np.log(p0) - np.log1p(-p0)
    # Each edge reads its partners' biases d = p0 - p1 from src: one per variable
    # (belief) or per edge (extrinsic, from the prior on), then the constants 1, 0.
    src = np.empty((t, (nv if schedule == "belief" else partners[0].size) + 2))
    src[:, -2:] = 1.0, 0.0
    if schedule == "extrinsic":
        src[:, :-2] = np.repeat(2.0 * p0 - 1.0, partners.shape[2], axis=1)
    hard_prev = _hard(p0, observed)
    converged = np.ones(t, dtype=bool)
    for _ in range(iterations):
        if schedule == "belief":
            src[:, :nv] = 2.0 * p0 - 1.0
        d = src[:, partners[0]]
        for p in partners[1:]:
            d *= src[:, p]
        with np.errstate(divide="ignore"):
            g = np.log1p(d) - np.log1p(-d)
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
            src[:, :-2] = np.clip(np.tanh(le / 2.0), -_BIAS_MAX, _BIAS_MAX).reshape(t, -1)
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
    check_type("graph", graph, FactorGraph)
    check_count("iterations", iterations, 1)
    check_choice("schedule", schedule, SCHEDULES)
    try:
        priors = np.asarray(priors, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError("priors must be a rectangular table of numbers") from None
    if priors.shape != (graph.n_vars, 2):
        raise DimensionError(f"priors must have shape ({graph.n_vars}, 2), got {priors.shape}")
    if not ((priors >= 0.0) & (priors <= 1.0)).all() or not np.allclose(priors.sum(axis=1), 1.0, atol=1e-9):
        raise ConfigError("each prior row must lie in [0, 1] and sum to 1")
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
    Past n = MLE_MAX_LOGICAL the search is refused with a CapacityError.
    """
    if n > MLE_MAX_LOGICAL:
        raise CapacityError(
            f"mle at n={n}: exhaustive search over 2^{n - 1} candidates exceeds the n={MLE_MAX_LOGICAL} limit"
        )
    t, k = words.shape
    total = 1 << (n - 1)
    chunk = max(64, min(total, 64_000_000 // max(1, t * k)))
    best_d = np.full(t, k + 1, dtype=np.int64)
    best_c = np.zeros(t, dtype=np.int64)
    for lo in range(0, total, chunk):
        cand_words = encode(_counter_bits(np.arange(lo, min(lo + chunk, total), dtype=np.int64), n))
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
    degenerate flag set, at any n, since nothing is searched.
    """
    check_type("model", model, NoiseModel)
    g = as_bits(g_obs)
    n = num_logical(g.size)
    degenerate = model.epsilon == 0.5
    word = encode(np.zeros(n, dtype=np.uint8) if degenerate else _mle_batch(g[None, :], n)[0])
    return DecodeOutcome(
        consecutive=word[consecutive_indices(n)],
        word=word,
        beliefs=None,
        iterations=0,
        converged=True,
        degenerate=degenerate,
    )
