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

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .channel import NoiseModel
from .codes import (
    _pair_ids,
    _triu,
    as_bits,
    consecutive_indices,
    encode,
    logical_from_consecutive,
    num_logical,
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
_MLE_BLOCK_BYTES = 4 << 20  # per float32 score block: trials * candidates * 4
_BP_TRIALS = 32  # per message-passing batch at least, fewer past triangle n = 40 (_bp_rows)
_BP_BLOCK_BYTES = 8 << 20  # per float64 per-edge array of a batch: max_degree * n_vars * trials * 8
_BP_SLOT_BYTES = 256 << 10  # per block of degree slots a round works on: slots * n_vars * trials * 8


@dataclass
class DecodeOutcome:
    """What a decoder hands back for one observed word.

    consecutive  decoded bits g_(i,i+1), length n-1; None when the graph
                 is not a pairwise-parity layout
    word         full hard-decision physical word
    beliefs      final (p0, p1) per variable, message passing only
    iterations   update rounds requested (0 for one-shot decoders); rounds
                 after an exact fixed point are skipped, which changes no output
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
    i = np.arange(1, n, dtype=np.intp)[:, None]
    k = np.arange(1, n - 1, dtype=np.intp)
    k = k + 2 * (k >= i)  # the n-2 k outside (i, i+1), ascending
    below = k < i
    a = np.where(below, _pair_ids(k, i, n), _pair_ids(i, k, n))
    b = np.where(below, _pair_ids(k, i + 1, n), _pair_ids(i + 1, k, n))
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _majority_batch(words: np.ndarray, n: int, include_direct: bool) -> np.ndarray:
    """Majority decisions for the consecutive bits, (trials, n-1).

    Votes are counted in the smallest unsigned type that holds n, uint8 up to
    n = 255: a one wins when ones > total // 2 and a zero when
    ones < (total + 1) // 2, comparisons that cannot overflow, and the tie
    rule is boolean operations on them, so nothing is widened to int64.
    Its speed depends on the words' memory order, not its output: each vote
    gathers whole columns, so the column-major words sim._draw_words hands it
    run about four times as fast as a row-major copy: 0.75 against 3.3 ms at
    n=40 and 1024 trials (timeit, best of 10, numpy 2.4.6)."""
    observed = words[:, consecutive_indices(n)]
    a, b = _vote_index_arrays(n)
    ones = (words[:, a] ^ words[:, b]).sum(axis=2, dtype=np.min_scalar_type(n))
    total = n - 2
    if include_direct:
        ones += observed
        total += 1
    # A tie, where no zero wins (ones >= (total + 1) // 2) and no one wins, keeps the observed bit.
    return (ones > total // 2) | ((ones >= (total + 1) // 2) & observed)


def majority_vote_decode(g_obs, *, include_direct: bool = False) -> DecodeOutcome:
    """Decode each consecutive pair by majority over its indirect parity votes.

    Target (i, i+1) collects the n-2 votes g_ik xor g_(i+1,k), one per k
    outside the pair; ties fall back to the observed g_(i,i+1) itself.
    include_direct adds the observed bit as one more vote. The full word
    is re-encoded from the chained consecutive decisions, so it is always
    a codeword.
    """
    check_type("include_direct", include_direct, bool)
    g = as_bits(g_obs)
    n = num_logical(g.size)
    cons = _majority_batch(g[None, :], n, include_direct)[0]
    word = encode(logical_from_consecutive(cons))
    return DecodeOutcome(consecutive=cons, word=word, beliefs=None, iterations=0, converged=True)


# ---------------------------------------------------------- message passing

def _bp_layout(graph: FactorGraph, schedule: str) -> np.ndarray:
    """The schedule's degree-slot-major partner table, (max_weight - 1,
    max_degree, n_vars): [j, k, v] is the j-th partner of variable v in its
    k-th check, in check order, as a variable u (belief) or as the edge
    k'*n_vars + u that u's message to that check comes from, u's k'-th check
    being this one (extrinsic). The two indices past the table's variables or
    edges stand for bias 1, which pads short checks, and bias 0, which pads
    the slots of variables in fewer than max_degree checks, whose message is
    then 0. Each call builds the table of its schedule only, read straight
    from the graph's int32 arrays; _partners keeps it."""
    nv, nc, var = graph.n_vars, graph.n_checks, graph.entries
    lens = np.diff(graph.offsets)
    # Edge e is position pos[e] of check chk[e] and slot slot[e] of variable
    # var[e]. Edges run check-major, so a stable sort by variable lists each
    # variable's checks in check order.
    chk = np.repeat(np.arange(nc, dtype=np.int32), lens)
    pos = np.arange(var.size, dtype=np.int32) - np.repeat(graph.offsets[:-1], lens)
    deg = np.bincount(var, minlength=nv)
    d_max, w = max(1, int(deg.max(initial=0))), max(2, int(lens.max(initial=0)))
    slot = np.empty(var.size, dtype=np.int32 if d_max * nv + 2 <= np.iinfo(np.int32).max else np.intp)
    slot[np.argsort(var, kind="stable")] = np.arange(var.size) - np.repeat(np.cumsum(deg) - deg, deg)
    edge = slot * nv + var
    del slot
    # Position i's partners, the longer of its prefix and reversed suffix
    # first, so their left-to-right product rounds like a prefix times a
    # suffix product up to weight 4: (x3*x2)*x1, (x3*x2)*x0, (x0*x1)*x3, (x0*x1)*x2.
    fold = np.array([[*range(w - 1, i, -1), *range(i)] if 2 * i < w else [*range(i), *range(w - 1, i, -1)]
                     for i in range(w)], dtype=np.intp)
    index, n_src = (edge, d_max * nv) if schedule == "extrinsic" else (var, nv)
    table = np.full((nc, w), n_src)
    table[chk, pos] = index
    out = np.full((w - 1, d_max * nv), n_src + 1)
    for j in range(w - 1):
        out[j, edge] = table[chk, fold[pos, j]]
    out.setflags(write=False)
    return out.reshape(w - 1, d_max, nv)


_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # graph -> {schedule: partner table}


def _partners(graph: FactorGraph, schedule: str) -> np.ndarray:
    """graph's partner table for schedule, built on first use; it goes when graph does."""
    tables = _TABLES.setdefault(graph, {})
    if schedule not in tables:
        tables[schedule] = _bp_layout(graph, schedule)
    return tables[schedule]


def _bp_rows(graph: FactorGraph, schedule: str) -> int:
    """Trials per _bp_batch call on graph. The extrinsic schedule's batch is
    _BP_TRIALS. The belief schedule holds no per-edge array, so its batch is
    as many trials as keep one (n_vars, trials) float64 block within
    _BP_SLOT_BYTES, _BP_TRIALS at least: 496 at triangle n = 12, 35 at n = 40.
    Either is cut to fewer (at least one) where a per-edge array would pass
    _BP_BLOCK_BYTES. It reads the sizes off the schedule's own partner table,
    so no other table gets built. It sizes memory, never output."""
    _, d_max, nv = _partners(graph, schedule).shape
    rows = _BP_TRIALS if schedule == "extrinsic" else max(_BP_TRIALS, _BP_SLOT_BYTES // (8 * nv))
    return max(1, min(rows, _BP_BLOCK_BYTES // (8 * d_max * nv)))


def _hard(p0: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Hard decisions, (trials, n_vars) uint8, from (n_vars, trials) beliefs p0:
    above 1/2 gives 0, below gives 1, and anything else (an exact tie, NaN)
    keeps the observed bit of the (trials, n_vars) word."""
    low_or_kept = np.logical_or(p0 < 0.5, observed.T)
    # True > False: below 1/2 or kept, and not above it.
    return np.greater(low_or_kept, p0 > 0.5).T.view(np.uint8)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run message passing on a (trials, n_vars) batch.

    Returns (final p0, hard words, converged flags, rounds run) after the
    requested rounds, at least one; the flag records whether the last round
    still changed a hard decision. Every message is one log-likelihood ratio
    log(p0/p1) per edge: a check sends log1p(d) - log1p(-d) for the product
    d of its other neighbours' biases, read through the partner tables (the
    tanh rule), and a variable sums its prior LLR with its incoming ones, so
    high-degree graphs cannot underflow.

    A round reads only the state the previous one left: the beliefs (belief
    schedule), or the beliefs and the per-edge biases (extrinsic). Once the
    whole batch's state repeats bit for bit, every later round would return
    the same bytes, so the loop stops there; the outputs equal those of a
    run through every round, with every converged flag set; only the rounds
    run, the fourth output, fall short of the requested count.

    Trials run innermost and per-edge arrays are degree-slot-major, the
    layout np.take gives a gather of the partner tables along axis 0:
    per-variable state is (n_vars, trials), message sources (n_src + 2,
    trials) and per-edge messages (slots, n_vars, trials), so each degree
    slot is one contiguous (n_vars, trials) block. A round works through
    the degree slots in blocks of consecutive slots, each within
    _BP_SLOT_BYTES (one slot at least), so the gather, the partner product
    and the log1p pair of a block stay in cache while its messages are added
    into the beliefs. The belief schedule holds one block of messages and
    one block of scratch, and no per-edge array. The extrinsic schedule
    holds every slot's messages, which the suffix sums need, plus its two
    source buffers of per-edge biases: each round writes its biases into the
    other one, so the previous ones stay to compare with. All buffers are
    allocated once per call, and every round writes into them with out=.
    Gathers use mode="clip", which np.take does not buffer; the tables hold
    no index out of range. A variable's messages are added one degree slot at
    a time, left to right, as are the prefix sums of the extrinsic pass, and
    its suffix sums right to left: numpy's own reductions add pairwise along
    a contiguous axis, so a batch of one trial would round differently from
    a larger one. With the order written out, a trial's beliefs depend on
    neither its batch nor the block size.
    """
    extrinsic = schedule == "extrinsic"
    partners = _partners(graph, schedule)
    _, d_max, nv = partners.shape
    t = p0.shape[0]
    cur = np.array(p0.T, dtype=np.float64, order="C")
    nxt = np.empty_like(cur)
    with np.errstate(divide="ignore"):
        lprior = np.log(cur) - np.log1p(-cur)
    width = max(1, min(d_max, _BP_SLOT_BYTES // max(1, 8 * nv * t)))
    blocks = [(k0, min(k0 + width, d_max)) for k0 in range(0, d_max, width)]
    tmp = np.empty((width, nv, t))
    # Each edge reads its partners' biases d = p0 - p1 from src: one per variable
    # (belief) or per edge (extrinsic, from the prior on), then the constants 1, 0.
    src = np.empty(((d_max * nv if extrinsic else nv) + 2, t))
    src[-2:] = [[1.0], [0.0]]
    if extrinsic:
        g = np.empty((d_max, nv, t))
        acc = np.empty_like(cur)
        new = np.empty_like(src)
        new[-2:] = src[-2:]
        src[:-2].reshape(d_max, nv, t)[...] = 2.0 * cur - 1.0
    else:
        g = np.empty_like(tmp)
    for rounds in range(1, iterations + 1):
        if extrinsic:
            bias = new[:-2].reshape(d_max, nv, t)
            bias[0] = 0.0
        else:
            src[:-2] = 2.0 * cur - 1.0
        for k0, k1 in blocks:
            msg, scratch = g[k0:k1] if extrinsic else g[: k1 - k0], tmp[: k1 - k0]
            np.take(src, partners[0, k0:k1], axis=0, out=msg, mode="clip")
            for p in partners[1:]:
                np.take(src, p[k0:k1], axis=0, out=scratch, mode="clip")
                np.multiply(msg, scratch, out=msg)
            np.negative(msg, out=scratch)
            with np.errstate(divide="ignore"):
                np.log1p(scratch, out=scratch)
                np.log1p(msg, out=msg)
            np.subtract(msg, scratch, out=msg)
            # nxt takes the sum of messages, slot by slot; on the way, the
            # running sum is the prefix the extrinsic pass needs.
            with np.errstate(invalid="ignore"):
                for k, m in enumerate(msg, k0):
                    if k == 0:
                        np.copyto(nxt, m)
                        continue
                    if extrinsic:
                        np.copyto(bias[k], nxt)
                    np.add(nxt, m, out=nxt)
        with np.errstate(invalid="ignore"):
            np.add(nxt, lprior, out=nxt)
        # +inf meeting -inf: hard evidence for both values of one variable.
        if np.isnan(nxt).any():
            raise InconsistentEvidenceError("conflicting hard evidence wiped out both hypotheses")
        np.negative(nxt, out=nxt)
        with np.errstate(over="ignore"):
            np.exp(nxt, out=nxt)
        np.add(nxt, 1.0, out=nxt)
        np.divide(1.0, nxt, out=nxt)
        np.clip(nxt, _CLAMP, 1.0 - _CLAMP, out=nxt)
        cur, nxt = nxt, cur
        # Bit patterns: only equal bytes are sure to give an equal next round (-0.0 == +0.0).
        settled = np.array_equal(cur.view(np.uint64), nxt.view(np.uint64))
        if extrinsic:
            # Each edge's bias: lprior + (prefix + suffix), the prefix already in
            # place, the suffix of later slots added right to left (the last
            # slot has none), then the tanh rule's tail, block by block.
            suffix = None
            for k0, k1 in reversed(blocks):
                for k in range(k1 - 1, k0 - 1, -1):
                    if suffix is not None:
                        np.add(bias[k], suffix, out=bias[k])
                    if k:
                        suffix = g[k] if suffix is None else np.add(suffix, g[k], out=acc)
                b = bias[k0:k1]
                np.add(b, lprior, out=b)
                np.divide(b, 2.0, out=b)
                np.tanh(b, out=b)
                np.clip(b, -_BIAS_MAX, _BIAS_MAX, out=b)
            settled = settled and np.array_equal(new.view(np.uint64), src.view(np.uint64))
            src, new = new, src
        if settled:
            break
    # After the swap, nxt holds the beliefs of the round before the last.
    hard = _hard(cur, observed)
    return cur.T, hard, (hard == _hard(nxt, observed)).all(axis=1), rounds


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
    hard reading (ties there fall to 0). A graph's partner table is built on
    its first decode and kept as long as the graph lives, so reuse one graph
    object across calls.

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
    iterations = check_count("iterations", iterations, 1)
    check_choice("schedule", schedule, SCHEDULES)
    try:
        priors = np.asarray(priors, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
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
    p0f, hard, conv, _ = _bp_batch(graph, p0, obs, iterations, schedule)
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


def _spins(bits: np.ndarray) -> np.ndarray:
    """Spins s = 1 - 2b of 0/1 bits, as float32."""
    return 1 - 2 * bits.astype(np.float32)


def _mle_batch(words: np.ndarray, n: int) -> np.ndarray:
    """Nearest-codeword logical words for a (trials, k) batch.

    Spins s = 1 - 2b score sum_(i<j) s_i s_j w_ij = k - 2 distance, w = 1 - 2g. The
    n spins split into a high part of m = ceil(n/2), which holds s_1 = +1 and the
    candidate counter's top m-1 bits (row a), and a low part of n-m, its bottom bits
    (column l), so counter a 2^(n-m) + l is (a, l) in row-major order. Per trial,
        score[a, l] = Q_H[a] + Q_L[l] + sum_(i high, j low) s_i[a] w_ij s_j[l],
    with Q_H, Q_L the pairs inside each part: each part's products are 2^(n/2)-row
    tables, and a score block is one batched float32 product of inner dimension n-m+2,
    x[a] = (s_hi[a] W_HL, Q_H[a], 1) against the columns (s_lo[l], 1, Q_L[l]) of its
    trial, so each block is written once, by the product. Every partial sum is an
    integer of magnitude at most k < 2^24, so float32 is exact in any summation order.
    Ties go to the lexicographically smallest: argmax keeps the first maximum of a
    block's (a, l) rows, and across blocks only a strictly higher score displaces
    the holder. Trial blocks run outside, row blocks inside, each score block
    within _MLE_BLOCK_BYTES (one trial and one row at least). Past n = MLE_MAX_LOGICAL
    it refuses.
    """
    if n > MLE_MAX_LOGICAL:
        raise CapacityError(
            f"mle at n={n}: exhaustive search over 2^{n - 1} candidates exceeds the n={MLE_MAX_LOGICAL} limit"
        )
    t, k = words.shape
    m = (n + 1) // 2
    rows, cols = 1 << (m - 1), 1 << (n - m)
    d = n - m
    # Spin tables: high rows a (s_1 = +1), low columns l.
    s_hi = _spins(_counter_bits(np.arange(rows, dtype=np.int64), m))
    s_lo = _spins(_counter_bits(np.arange(cols, dtype=np.int64), d + 1)[:, 1:])
    hi_pairs, lo_pairs = _triu(m), _triu(d)
    p_hi = s_hi[:, hi_pairs[0]] * s_hi[:, hi_pairs[1]]
    p_lo = s_lo[:, lo_pairs[0]] * s_lo[:, lo_pairs[1]]
    # Pair index sets of the word, each in the row-major order of its part.
    iu, ju = _triu(n)
    hi_idx, lo_idx = np.flatnonzero(ju < m), np.flatnonzero(iu >= m)
    cross_idx = np.flatnonzero((iu < m) & (ju >= m))  # row i holds (i, m..n-1) in order
    budget = _MLE_BLOCK_BYTES // 4
    t_rows = max(1, min(t, budget // (rows * cols)))
    a_rows = max(1, min(rows, budget // cols))
    buf = np.empty(t_rows * a_rows * cols, dtype=np.float32)
    # Per trial, the low operand's rows: s_lo transposed, a ones row, then that trial's Q_L.
    lo = np.empty((t_rows, d + 2, cols), dtype=np.float32)
    lo[:, :d] = s_lo.T
    lo[:, d] = 1.0
    best_c = np.zeros(t, dtype=np.int64)
    for t0 in range(0, t, t_rows):
        tb = min(t_rows, t - t0)
        w = _spins(words[t0 : t0 + tb])
        # x[r, a] = (s_hi[a] @ W_HL of trial r, Q_H[a] of trial r, 1): one product for the block.
        w_hl = w[:, cross_idx].reshape(tb, m, d).transpose(1, 0, 2).reshape(m, tb * d)
        x = np.empty((tb, rows, d + 2), dtype=np.float32)
        x[:, :, :d] = (s_hi @ w_hl).reshape(rows, tb, d).transpose(1, 0, 2)
        x[:, :, d] = w[:, hi_idx] @ p_hi.T
        x[:, :, d + 1] = 1.0
        lo[:tb, d + 1] = w[:, lo_idx] @ p_lo.T
        best, best_score = best_c[t0 : t0 + tb], np.full(tb, -k - 1, dtype=np.float32)
        for a0 in range(0, rows, a_rows):
            ab = min(a_rows, rows - a0)
            score = buf[: tb * ab * cols].reshape(tb, ab, cols)
            np.matmul(x[:, a0 : a0 + ab], lo[:tb], out=score)
            score = score.reshape(tb, ab * cols)
            arg = score.argmax(axis=1)
            top = score[np.arange(tb), arg]
            np.copyto(best, arg + a0 * cols, where=top > best_score)
            np.maximum(best_score, top, out=best_score)
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
