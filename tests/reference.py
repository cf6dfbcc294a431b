"""Slow but independent reference implementations the tests check against.

Everything here is deliberately naive: exhaustive enumeration and dict-based
message passing, no shared code with the package internals beyond the public
FactorGraph/encode surface. The exceptions are the bit-exact oracles of two
vectorised kernels: the Hamming-distance nearest-codeword search, which reads
the candidates in the package's counter order, and the slot-major LLR engine
at the end. The first helpers are test-only: the [7,4] Hamming graph, the one
fixture that is not a pairwise-parity layout, the syndrome, rank and codeword
set of a graph's check matrix over GF(2), the linear index of a pair (checked
with the package's own count rule) and its closed-form inverse, and the
gauge-fixed readout and consecutive-pair slice of a physical word.
"""

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from lhzcode import (
    CapacityError,
    FactorGraph,
    InconsistentEvidenceError,
    LhzError,
    as_bits,
    encode,
    num_logical,
)
from lhzcode.decoders import MLE_MAX_LOGICAL, _counter_bits
from lhzcode.errors import check_count


def hamming_7_4():
    """The [7,4] single-error-correcting code: rows 1110100, 0111010, 0011101."""
    return FactorGraph(7, ((0, 1, 2, 4), (1, 2, 3, 5), (2, 3, 4, 6)))


def syndrome(graph, word):
    """Parity of each check on the word; all zeros iff a codeword."""
    return np.array([sum(int(word[v]) for v in c) % 2 for c in graph.checks], dtype=np.uint8)


def _reduced_echelon(graph):
    """The check matrix over GF(2) in reduced echelon form, rows packed into
    ints: {pivot column: row}, each pivot column clear in every other row."""
    rows = {}
    for c in graph.checks:
        row = sum(1 << v for v in c)
        for col, prow in rows.items():
            if row >> col & 1:
                row ^= prow
        if row:
            col = (row & -row).bit_length() - 1
            for pc, prow in rows.items():
                if prow >> col & 1:
                    rows[pc] = prow ^ row
            rows[col] = row
    return rows


def gf2_rank(graph):
    return len(_reduced_echelon(graph))


def enumerate_codewords(graph):
    """Every word with all-zero syndrome, as a set of 0/1 tuples: each free
    column set alone fixes the pivot columns of the rows it appears in."""
    rows = _reduced_echelon(graph)
    basis = [(1 << f) | sum(1 << col for col, row in rows.items() if row >> f & 1)
             for f in range(graph.n_vars) if f not in rows]
    words = set()
    for combo in itertools.product((0, 1), repeat=len(basis)):
        w = 0
        for vec in itertools.compress(basis, combo):
            w ^= vec
        words.add(tuple(w >> v & 1 for v in range(graph.n_vars)))
    return words


class InvalidPairError(LhzError, ValueError):
    """Pair (i, j) outside 1 <= i < j <= n, or a linear index out of range."""


def pair_index(i, j, n):
    """Linear index of the pair (i, j) with 1 <= i < j <= n: the pairs of the
    rows before i, then those of row i before j."""
    i, j, n = (check_count(name, v) for name, v in (("i", i), ("j", j), ("n", n)))
    if not 1 <= i < j <= n:
        raise InvalidPairError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return sum(n - row for row in range(1, i)) + (j - i - 1)


def index_pair(k, n):
    """Pair (i, j) sitting at linear index k, the inverse of pair_index, in
    closed form: row i is the least with (n-i)(n-i+1)/2 above the count of
    pairs after k."""
    k, n = check_count("k", k), check_count("n", n, 2)
    pairs = n * (n - 1) // 2
    if not 0 <= k < pairs:
        raise InvalidPairError(f"index {k} out of range for n={n} ({pairs} pairs)")
    i = n - (math.isqrt(8 * (pairs - 1 - k) + 1) + 1) // 2
    return i, k - (i - 1) * (2 * n - i) // 2 + i + 1


def logical_readout(g):
    """Gauge-fixed logical word of a physical word: b_1 = 0, b_j = g_1j.

    Only exact on codewords; a noisy word reads out whatever its first row says.
    """
    g = as_bits(g)
    n = num_logical(g.size)
    return np.concatenate(([0], g[: n - 1])).astype(np.uint8)


def consecutive_bits(g):
    """The n-1 bits g_(i,i+1), which fix the logical word up to a global flip."""
    g = as_bits(g)
    n = num_logical(g.size)
    return g[[pair_index(i, i + 1, n) for i in range(1, n)]]


def exact_marginals(graph, priors):
    """Posterior marginals by summing the prior over every satisfying word."""
    tot = np.zeros((graph.n_vars, 2))
    for bits in itertools.product((0, 1), repeat=graph.n_vars):
        w = np.array(bits, dtype=np.uint8)
        if syndrome(graph, w).any():
            continue
        p = 1.0
        for v in range(graph.n_vars):
            p *= priors[v][w[v]]
        for v in range(graph.n_vars):
            tot[v, w[v]] += p
    s = tot.sum(axis=1, keepdims=True)
    return tot / s


def _check_msg(beliefs):
    even, odd = 1.0, 0.0
    for p0, p1 in beliefs:
        even, odd = even * p0 + odd * p1, even * p1 + odd * p0
    return even, odd


def naive_belief_bp(graph, priors, iterations):
    """Belief-feedback schedule: checks read current posteriors, variables
    multiply the original prior by every incoming message."""
    pri = [tuple(r) for r in priors]
    post = list(pri)
    for _ in range(iterations):
        inbox = [[] for _ in range(graph.n_vars)]
        for c in graph.checks:
            for v in c:
                inbox[v].append(_check_msg([post[u] for u in c if u != v]))
        nxt = []
        for v in range(graph.n_vars):
            p0, p1 = pri[v]
            for m0, m1 in inbox[v]:
                p0 *= m0
                p1 *= m1
            t = p0 + p1
            nxt.append((p0 / t, p1 / t))
        post = nxt
    return np.array(post)


def naive_extrinsic_bp(graph, priors, iterations):
    """Textbook sum-product with extrinsic variable-to-check messages."""
    pri = [tuple(r) for r in priors]
    mu = {(v, ci): pri[v] for ci, c in enumerate(graph.checks) for v in c}
    post = list(pri)
    for _ in range(iterations):
        mc = {}
        for ci, c in enumerate(graph.checks):
            for v in c:
                mc[(ci, v)] = _check_msg([mu[(u, ci)] for u in c if u != v])
        post = []
        for v in range(graph.n_vars):
            p0, p1 = pri[v]
            for ci, c in enumerate(graph.checks):
                if v in c:
                    p0 *= mc[(ci, v)][0]
                    p1 *= mc[(ci, v)][1]
            t = p0 + p1
            post.append((p0 / t, p1 / t))
        nxt = {}
        for ci, c in enumerate(graph.checks):
            for v in c:
                p0, p1 = pri[v]
                for cj, c2 in enumerate(graph.checks):
                    if cj != ci and v in c2:
                        p0 *= mc[(cj, v)][0]
                        p1 *= mc[(cj, v)][1]
                t = p0 + p1
                nxt[(v, ci)] = (p0 / t, p1 / t)
        mu = nxt
    return np.array(post)


def vote_majority(word, n, i, include_direct):
    """Decode target (i, i+1) by counting raw votes, one loop at a time."""
    j = i + 1
    votes = []
    for k in range(1, n + 1):
        if k in (i, j):
            continue
        a = word[pair_index(min(i, k), max(i, k), n)]
        b = word[pair_index(min(j, k), max(j, k), n)]
        votes.append(int(a) ^ int(b))
    obs = int(word[pair_index(i, j, n)])
    if include_direct:
        votes.append(obs)
    ones = sum(votes)
    zeros = len(votes) - ones
    if ones > zeros:
        return 1
    if ones < zeros:
        return 0
    return obs


def majority_batch_int64(words: np.ndarray, n: int, include_direct: bool) -> np.ndarray:
    """Majority decisions for the consecutive bits of a (trials, k) batch,
    (trials, n-1), one target at a time: votes counted in int64 and compared
    as 2 * ones against the total, ties keeping the observed bit."""
    index = np.zeros((n, n), dtype=np.intp)  # index[i, j] = index[j, i] = zero-based pair index
    index[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    index += index.T
    words = np.asarray(words, dtype=np.int64)
    out = np.empty((len(words), n - 1), dtype=np.uint8)
    for i in range(n - 1):
        others = [k for k in range(n) if k not in (i, i + 1)]
        ones = (words[:, index[i, others]] ^ words[:, index[i + 1, others]]).sum(axis=1)
        observed = words[:, index[i, i + 1]]
        total = n - 2
        if include_direct:
            ones = ones + observed
            total += 1
        out[:, i] = np.where(2 * ones > total, 1, np.where(2 * ones < total, 0, observed))
    return out


def exact_majority_pair_fail(n, eps, include_direct=False):
    """Exact failure probability of one majority-decoded consecutive bit.

    The n-2 indirect votes are wrong independently with prob 2 eps (1-eps);
    the direct bit (used for ties, optionally as a vote) is wrong with
    prob eps, independently of all indirect votes.
    """
    es = 2.0 * eps * (1.0 - eps)
    m = n - 2

    def binom(w):
        return math.comb(m, w) * es**w * (1.0 - es) ** (m - w)

    fail = 0.0
    for w in range(m + 1):
        pw = binom(w)
        for direct_wrong, pd in ((0, 1.0 - eps), (1, eps)):
            ones = w + (direct_wrong if include_direct else 0)
            total = m + (1 if include_direct else 0)
            if 2 * ones > total:
                decided_wrong = True
            elif 2 * ones < total:
                decided_wrong = False
            else:
                decided_wrong = bool(direct_wrong)
            if decided_wrong:
                fail += pw * pd
    return fail


def nearest_codeword_bruteforce(word, n):
    """Lexicographically first gauge-fixed b minimizing the Hamming distance."""
    word = np.asarray(word, dtype=np.uint8)
    best = None
    for bits in itertools.product((0, 1), repeat=n - 1):
        b = np.array((0,) + bits, dtype=np.uint8)
        d = int((encode(b) != word).sum())
        if best is None or d < best[0]:
            best = (d, b)
    return best[1]


# ----------------------------------- distance-counting nearest-codeword search
#
# The exhaustive search before it became a +-1 matrix product: each candidate
# block is encoded and compared bit by bit with every trial. The product
# kernel must return the same words, ties included.

def mle_batch_distance(words: np.ndarray, n: int) -> np.ndarray:
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


# ------------------------------------------- slot-major LLR engine (oracle)
#
# The engine message passing ran before the partner tables: a check gathers
# its biases, takes two cumulative products and writes one message per
# (check, position) slot, which each variable gathers back. Its arrays are
# (trials, slots), trials outermost, and it always runs every round. The
# package engine, whose per-edge arrays are (degree slot, variable, trials)
# and which stops at an exact fixed point, must reproduce it bit for bit on
# checks of weight <= 4.

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


def slot_major_bp_batch(
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
