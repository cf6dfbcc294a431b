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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import NoiseModel
from .codes import (
    _upper_cells,
    as_bits,
    consecutive_indices,
    encode,
    logical_from_consecutive,
    num_logical,
)
from .errors import CapacityError, ConfigError, DimensionError, InconsistentEvidenceError
from .errors import check_choice, check_count, check_epsilon, check_type
from .factor_graph import _INT32_MAX, FactorGraph

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
# What one block of a majority or mle cell holds at once (sim._draw_rows), and
# each float32 score block of the exhaustive search: trials * candidates * 4.
_BLOCK_BYTES = 1 << 20
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
    epsilon = check_epsilon(epsilon)
    return 2.0 * epsilon * (1.0 - epsilon)


# ---------------------------------------------------------------- majority

def _majority_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-n index arrays of _majority_batch: the pair matrix's
    upper-triangle cells, their mirror cells, and the consecutive pair indices.
    At n = 1000 they cost about 7 ms, 1.7 ms for the cells and 5 ms for their
    mirror, so a cell makes them once and hands them to each of its blocks."""
    up = _upper_cells(n)
    return up, (up % n) * n + up // n, consecutive_indices(n)


def _majority_batch(words: np.ndarray, n: int, include_direct: bool, *,
                    tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Majority decisions for the consecutive bits, (trials, n-1).

    The words go into the symmetric pair matrix M, (n, n, trials) with
    M[i, j] = M[j, i] = g_ij and a zero diagonal, so the n-2 votes of target
    (i, i+1) are the xor of rows i and i+1 off columns i and i+1. Each of
    those two columns adds the observed g_(i,i+1) to the row sum, which is
    subtracted twice. The sum is at most n, so votes are counted in the
    smallest unsigned type that holds n, uint8 up to n = 255: a one wins when
    ones > total // 2 and a zero when ones < (total + 1) // 2, comparisons
    that cannot overflow, and the tie rule is boolean operations on them, so
    nothing is widened to int64. tables is _majority_tables(n), made here
    when not given. A block holds M and the xor of its rows, about 2 n^2
    bytes a trial, which sim._draw_rows counts against its budget.
    Its speed depends on the words' memory order, not its output: M is
    filled a word position at a time, so the column-major words
    sim._draw_words hands it run about 2.7 times as fast as a row-major
    copy: 0.61 against 1.65 ms at n=40 and 1024 trials (timeit, best of 10,
    numpy 2.4.6, 2 vCPUs)."""
    up, mirror, cons = _majority_tables(n) if tables is None else tables
    m = np.zeros((n * n, words.shape[0]), dtype=np.uint8)
    m[up] = words.T
    m[mirror] = words.T
    m = m.reshape(n, n, -1)
    ones = np.bitwise_xor(m[:-1], m[1:]).sum(axis=1, dtype=np.min_scalar_type(n)).T
    observed = words[:, cons]
    ones -= observed
    ones -= observed
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
    from the graph's int32 arrays; _partners keeps it. A graph whose edge
    indices, with the two pads, pass int32 raises CapacityError before any
    slot or table array is made: only a tuple-built graph can, and its table
    would hold about 2^31 entries or more."""
    nv, nc, var = graph.n_vars, graph.n_checks, graph.entries
    lens = np.diff(graph.offsets)
    deg = np.bincount(var, minlength=nv)
    d_max, w = max(1, int(deg.max(initial=0))), max(2, int(lens.max(initial=0)))
    if d_max * nv + 2 > _INT32_MAX:
        raise CapacityError(f"a partner table of {nv} variables of degree {d_max} passes the int32 limit")
    # Edge e is position pos[e] of check chk[e] and slot slot[e] of variable
    # var[e]. Edges run check-major, so a stable sort by variable lists each
    # variable's checks in check order.
    chk = np.repeat(np.arange(nc, dtype=np.int32), lens)
    pos = np.arange(var.size, dtype=np.int32) - np.repeat(graph.offsets[:-1], lens)
    slot = np.empty(var.size, dtype=np.int32)
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


def _partners(graph: FactorGraph, schedule: str) -> np.ndarray:
    """graph's partner table for schedule, built on first use under the
    graph's lock and kept on the graph, so threads that first decode one
    graph at once build it once, and it goes when graph does."""
    with graph._lock:
        if schedule not in graph._tables:
            graph._tables[schedule] = _bp_layout(graph, schedule)
        return graph._tables[schedule]


def _bp_rows(graph: FactorGraph, schedule: str) -> int:
    """Trials per _bp_batch call on graph. The extrinsic schedule's batch is
    _BP_TRIALS. The belief schedule holds no per-edge array, so its batch is
    as many trials as keep one (n_vars, trials) float64 block within
    _BP_SLOT_BYTES, _BP_TRIALS at least: 496 at triangle n = 12, 42 at n = 40.
    Either is cut to fewer (at least one) where a per-edge array would pass
    _BP_BLOCK_BYTES. That cap binds the belief schedule too, though it holds
    no such array: 42 becomes 35 at triangle n = 40, and 2 at n = 100. It
    stays, since lifting it slowed the belief n = 40 bench cell from 0.126 to
    0.150 s. It reads the sizes off the schedule's own partner table, so no
    other table gets built. It sizes memory, never output."""
    _, d_max, nv = _partners(graph, schedule).shape
    rows = _BP_TRIALS if schedule == "extrinsic" else max(_BP_TRIALS, _BP_SLOT_BYTES // (8 * nv))
    return max(1, min(rows, _BP_BLOCK_BYTES // (8 * d_max * nv)))


def _slot_width(d_max: int, cells: int) -> int:
    """Degree slots per block of a round whose slots hold cells float64 each:
    as many as fit in _BP_SLOT_BYTES, one at least, d_max at most."""
    return max(1, min(d_max, _BP_SLOT_BYTES // max(1, 8 * cells)))


def _bp_buffers(graph: FactorGraph, schedule: str, trials: int) -> dict[str, np.ndarray]:
    """_bp_batch's buffers for batches of at most trials trials on graph, by
    name, each a flat float64 array: the beliefs cur and nxt, the prior LLRs
    lprior, the sources src (and new, extrinsic), the messages g and the
    scratch block tmp. run_cell sizes one set per cell, and every batch of
    the cell carves its views from it."""
    _, d_max, nv = _partners(graph, schedule).shape
    extrinsic = schedule == "extrinsic"
    cells, width = nv * trials, _slot_width(d_max, nv * trials)
    sizes = {"cur": cells, "nxt": cells, "lprior": cells, "src": ((d_max * nv if extrinsic else nv) + 2) * trials,
             "g": (d_max if extrinsic else width) * cells, "tmp": width * cells}
    if extrinsic:
        sizes["new"] = sizes["src"]
    return {name: np.empty(size) for name, size in sizes.items()}


def _carve(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The C-contiguous view of shape at the front of the flat array."""
    return flat[: math.prod(shape)].reshape(shape)


def _same_bits(a: np.ndarray, b: np.ndarray, flags: np.ndarray) -> bool:
    """Whether the float64 arrays a and b hold the same bit patterns (so -0.0
    differs from +0.0), compared a chunk at a time into the flat bool array
    flags, with no temporary; a chunk that differs ends the test."""
    a, b = a.reshape(-1).view(np.uint64), b.reshape(-1).view(np.uint64)
    step = max(1, flags.size)
    return all(np.equal(a[i : i + step], b[i : i + step], out=flags[: min(step, a.size - i)]).all()
               for i in range(0, a.size, step))


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


def _message_scale(x: np.ndarray, out: np.ndarray, factors: int):
    """The c with fl(d c) == log1p(d) - log1p(-d) for d = +-P, or None if
    there is none: P is the one magnitude s of the sources x (None if they
    differ or hold NaN) multiplied by itself left to right into a product of
    factors, as a round multiplies the partner biases of a check. So every
    partner product is +-P, and c turns each into its message with one
    multiply; one c serves both signs, since d -> log1p(d) - log1p(-d) is odd
    to the bit. The message is computed by a block's own ufunc chain, on a
    one-element array, under _bp_batch's errstate (log1p(-1) divides by
    zero). out, shaped like x, takes |x|; x must not be empty."""
    np.abs(x, out=out)
    s = out.min()
    if s != out.max():
        return None
    d = np.full(1, s)
    for _ in range(factors - 1):
        np.multiply(d, s, out=d)
    if not d[0] > 0.0:
        return None
    e = np.negative(d)
    np.log1p(e, out=e)
    f = np.log1p(d)
    np.subtract(f, e, out=f)
    c = f / d
    return float(c[0]) if d * c == f else None


def _bp_batch(
    graph: FactorGraph,
    p0: np.ndarray,
    observed: np.ndarray,
    iterations: int,
    schedule: str,
    *,
    buffers: Optional[dict] = None,
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
    other one, so the previous ones stay to compare with. The buffers are
    per cell: buffers, from _bp_buffers, serves every batch of up to the
    trials it was sized for, and each call carves C-contiguous prefix views
    sized for its own batch from it (without it, the call sizes its own).
    Every step writes into those views with out=, so a round allocates no
    array, and the returned beliefs are a copy. Gathers use mode="clip",
    which np.take does not buffer; the tables hold no index out of range. A
    variable's messages are added one degree slot at a time, left to right,
    as are the prefix sums of the extrinsic pass, and its suffix sums right
    to left: numpy's own reductions add pairwise along a contiguous axis, so
    a batch of one trial would round differently from a larger one. With the
    order written out, a trial's beliefs depend on neither its batch, nor the
    block size, nor the buffers.

    Two shortcuts skip work whose result is known, and change no byte. Each
    is chosen from the round's own data.
    - One-magnitude rounds. If the partner table has no pad index, every
      check has one weight w. If also every source bias of a round has one
      magnitude s > 0, every partner product is +-P, with P = s^(w-1)
      multiplied in the engine's order, since rounding is sign-symmetric.
      And every message is +-f(P), since f(d) = log1p(d) - log1p(-d) is odd
      to the bit. So _message_scale computes f(P) once, by the same ufunc
      chain, and a block's log1p pair becomes one multiply by c = f(P)/P.
      c is used only where fl(P c) == f(P). One test decides every round,
      with no new temporary: slot 0's sources must share one magnitude,
      their |src| going into nxt, and then in an extrinsic round after the
      first so must every slot's, their |src| going into g. It passes in
      round 1 when the two channel biases are exact negatives (+-0.8 at
      eps 0.1), once the sources are clamped at +-(1 - 2^-52), and whenever
      the batch is symmetric enough that every source has one magnitude.
    - The last requested round skips the settle compares, and an extrinsic
      one builds no per-edge biases (prefix sums, suffix sums, the tanh
      tail): none of the four outputs reads them.
    """
    extrinsic = schedule == "extrinsic"
    partners = _partners(graph, schedule)
    _, d_max, nv = partners.shape
    t = p0.shape[0]
    buf = _bp_buffers(graph, schedule, t) if buffers is None else buffers
    n_src = d_max * nv if extrinsic else nv
    # A shorter batch than the buffers' may take wider blocks, as far as tmp holds them.
    width = min(_slot_width(d_max, nv * t), max(1, buf["tmp"].size // max(1, nv * t)))
    blocks = [(k0, min(k0 + width, d_max)) for k0 in range(0, d_max, width)]
    cur, nxt, lprior = (_carve(buf[name], nv, t) for name in ("cur", "nxt", "lprior"))
    tmp = _carve(buf["tmp"], width, nv, t)
    flags = buf["tmp"].view(np.bool_)  # scratch for the NaN test and the settle compares
    # Each edge reads its partners' biases d = p0 - p1 from src: one per variable
    # (belief) or per edge (extrinsic, from the prior on), then the constants 1, 0.
    src = _carve(buf["src"], n_src + 2, t)
    src[-2:] = [[1.0], [0.0]]
    # No pad index in the table: every check has its weight, every variable d_max checks.
    full = cur.size > 0 and graph.entries.size == graph.n_checks * (len(partners) + 1) == d_max * nv
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.copyto(cur, p0.T, casting="unsafe")
        np.log(cur, out=lprior)
        np.negative(cur, out=nxt)
        np.log1p(nxt, out=nxt)
        np.subtract(lprior, nxt, out=lprior)
        if extrinsic:
            g = _carve(buf["g"], d_max, nv, t)
            new = _carve(buf["new"], n_src + 2, t)
            new[-2:] = src[-2:]
            np.multiply(cur, 2.0, out=src[:nv])
            np.subtract(src[:nv], 1.0, out=src[:nv])
            np.copyto(src[nv:-2].reshape(d_max - 1, nv, t), src[:nv])
        else:
            g = _carve(buf["g"], width, nv, t)
        for rounds in range(1, iterations + 1):
            # The last round's per-edge biases would go unread.
            edges = extrinsic and rounds < iterations
            if edges:
                bias = new[:-2].reshape(d_max, nv, t)
                bias[0] = 0.0
            elif not extrinsic:
                np.multiply(cur, 2.0, out=src[:-2])
                np.subtract(src[:-2], 1.0, out=src[:-2])
            scale = _message_scale(src[:nv], nxt, len(partners)) if full else None
            if scale is not None and extrinsic and rounds > 1:
                scale = _message_scale(src[:-2], g.reshape(n_src, t), len(partners))
            for k0, k1 in blocks:
                msg, scratch = g[k0:k1] if extrinsic else g[: k1 - k0], tmp[: k1 - k0]
                np.take(src, partners[0, k0:k1], axis=0, out=msg, mode="clip")
                for p in partners[1:]:
                    np.take(src, p[k0:k1], axis=0, out=scratch, mode="clip")
                    np.multiply(msg, scratch, out=msg)
                if scale is not None:
                    np.multiply(msg, scale, out=msg)
                else:
                    np.negative(msg, out=scratch)
                    np.log1p(scratch, out=scratch)
                    np.log1p(msg, out=msg)
                    np.subtract(msg, scratch, out=msg)
                # Messages are summed slot by slot into nxt; a round that builds
                # biases keeps each prefix sum, the slots before k, in bias[k].
                for k, m in enumerate(msg, k0):
                    acc = bias[k + 1] if edges and k + 1 < d_max else nxt
                    if k == 0:
                        np.copyto(acc, m)
                    else:
                        np.add(bias[k] if edges else nxt, m, out=acc)
            np.add(nxt, lprior, out=nxt)
            # +inf meeting -inf: hard evidence for both values of one variable.
            if np.isnan(nxt, out=_carve(flags, nv, t)).any():
                raise InconsistentEvidenceError("conflicting hard evidence wiped out both hypotheses")
            np.negative(nxt, out=nxt)
            np.exp(nxt, out=nxt)
            np.add(nxt, 1.0, out=nxt)
            np.divide(1.0, nxt, out=nxt)
            np.clip(nxt, _CLAMP, 1.0 - _CLAMP, out=nxt)
            cur, nxt = nxt, cur
            if rounds == iterations:
                break
            settled = _same_bits(cur, nxt, flags)
            if extrinsic:
                # Each edge's bias: lprior + (prefix + suffix), the prefix already in
                # place, the suffix of later slots added right to left (the last
                # slot has none) and built up in the last slot's messages, which
                # nothing reads again; then the tanh rule's tail, block by block.
                suffix = g[-1]
                for k0, k1 in reversed(blocks):
                    for k in range(min(k1, d_max - 1) - 1, k0 - 1, -1):
                        np.add(bias[k], suffix, out=bias[k])
                        if k:
                            np.add(suffix, g[k], out=suffix)
                    b = bias[k0:k1]
                    np.add(b, lprior, out=b)
                    np.multiply(b, 0.5, out=b)
                    np.tanh(b, out=b)
                    np.clip(b, -_BIAS_MAX, _BIAS_MAX, out=b)
                settled = settled and _same_bits(new[:-2], src[:-2], flags)
                src, new = new, src
            if settled:
                break
    # After the swap, nxt holds the beliefs of the round before the last.
    hard = _hard(cur, observed)
    converged = (hard == _hard(nxt, observed)).all(axis=1)
    return cur.copy().T, hard, converged, rounds


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
    hard reading (ties there fall to 0). A graph's partner table is built
    once, on its first decode, even when threads decode it at once, and the
    graph keeps it as long as it lives, so reuse one graph object across
    calls; sim.graph_for returns the one a caller still holds.

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
        priors = np.asarray(priors)
        if priors.dtype.kind == "c":  # a cast would drop the imaginary part, with a warning
            raise TypeError
        priors = priors.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("priors must be a rectangular table of real numbers") from None
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
    within _BLOCK_BYTES, 1 MiB (one trial and one row at least), the budget
    that sizes the cell's blocks of words too (sim._draw_rows): 32 trials of
    8192 candidates at n = 14, where a 200-trial cell peaks at 1.3 MiB under
    tracemalloc. Past n = MLE_MAX_LOGICAL it refuses.
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
    hi_pairs, lo_pairs = np.triu_indices(m, 1), np.triu_indices(d, 1)
    p_hi = s_hi[:, hi_pairs[0]] * s_hi[:, hi_pairs[1]]
    p_lo = s_lo[:, lo_pairs[0]] * s_lo[:, lo_pairs[1]]
    # Pair index sets of the word, each in the row-major order of its part.
    iu, ju = np.triu_indices(n, 1)
    hi_idx, lo_idx = np.flatnonzero(ju < m), np.flatnonzero(iu >= m)
    cross_idx = np.flatnonzero((iu < m) & (ju >= m))  # row i holds (i, m..n-1) in order
    budget = _BLOCK_BYTES // 4
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
    degenerate flag set, at any n, since nothing is searched. A sim.run_cell
    mle cell searches there too, so its counts differ from this decoder's
    at 1/2 (98 failures against 100 at n = 7, 100 trials, seed 3), and it
    refuses past n = MLE_MAX_LOGICAL as at any other epsilon.
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
