"""Seeded Monte Carlo estimation of logical failure rates, plus analytic bounds.

One trial: draw a logical word, encode, push the physical word through the
i.i.d. flip channel, decode, and compare the decoded consecutive bits with
the true ones. That comparison is gauge invariant, so the estimate does not
depend on which of the two logical preimages the decoder lands on.

Each cell reads its bits and flips from two RNG streams keyed by (seed,
decoder id, n, eps index), trial after trial and a fixed count of raw 64-bit
outputs per trial (n bits, ceil(k/2) for k flips), so results are
prefix-stable in trials and byte-identical under any block size, cell
order, or threads.

run_cell's block loop is the only loop over a cell's trials. Before it,
_cell_decoder sets the cell up once: it sizes the block and makes the block
decoder, with everything its blocks read. A majority or mle block takes as
many trials as keep what it holds at once within decoders._BLOCK_BYTES,
1 MiB (_draw_rows), which also bounds each score block of the search. A
1024-trial majority cell at n = 40 peaks at 1.0 MiB under tracemalloc, and
an mle one at n = 14 at 1.6 MiB. Majority's per-n index arrays are made once
per cell, so that one-trial blocks at large n do not rebuild them. Message
passing takes the batch decoders._bp_rows sizes, and a bp cell sizes one set
of message-passing buffers (decoders._bp_buffers) for that batch, which every
batch of the cell, the shorter last one included, reuses. Its priors come
from the channel's one prior rule.

run_sweep runs one (decoder, n) group at a time, on the calling thread, and
spreads only the group's eps cells over its worker threads. A bp group holds
its graph, with its partner table built, while its eps cells run, so
graph_for hands each cell that graph and table. No table outlives its last
user.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import NoiseModel, _prior_p0, apply_iid_flip, stream
from .codes import MAX_N, consecutive_indices, encode, num_pairs
from .decoders import (
    _BLOCK_BYTES,
    SCHEDULES,
    _bp_batch,
    _bp_buffers,
    _bp_rows,
    _majority_batch,
    _majority_tables,
    _mle_batch,
    _partners,
    epsilon_star,
)
from .errors import CapacityError, ConfigError, check_choice, check_count, check_epsilon, check_type
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
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # (kind, n) -> the graph someone holds
_LIVE_LOCK = threading.Lock()  # one graph_for lookup or build at a time: _LIVE's setdefault is not atomic

_SHARED_ID = 0          # decoder slot in the RNG key when noise is shared
_BITS, _FLIPS = 0, 1    # purpose slot in the RNG key: logical bits, flips
_HALF = np.uint64(1 << 63)  # a raw output below it is a bit of 1, as its uniform (raw >> 11) * 2^-53 < 1/2


def chernoff_bound(n: int, epsilon: float) -> float:
    """Analytic bound on one consecutive bit's majority failure.

    exp(-2 (n-2) (1/2 - eps*)^2) with eps* = 2 eps (1 - eps): Hoeffding on
    the n-2 indirect votes, each an independent two-bit parity. n runs from
    2 to MAX_N, the array-index limit SimConfig puts on n, so n - 2 fits a float.
    """
    n = check_count("n", n, 2, MAX_N)
    es = epsilon_star(epsilon)
    return math.exp(-2.0 * (n - 2) * (0.5 - es) ** 2)


def union_bound(n: int, epsilon: float) -> float:
    """(n-1) times the per-bit bound: any of the consecutive bits failing,
    for the same n as chernoff_bound.

    Values above 1 are returned as-is; a vacuous bound is still a bound.
    """
    n = check_count("n", n, 2, MAX_N)
    return chernoff_bound(n, epsilon) * (n - 1)


@dataclass(frozen=True)
class SimConfig:
    """One sweep: every decoder at every (n, epsilon) cell.

    The single place the sweep and cell settings are validated, and the
    one cell spec: run_cell builds a one-cell config, and the fields past
    the three sweep axes are run_cell's settings by name. Raises ConfigError.
    Integer fields are kept as Python ints and eps_values as Python floats,
    whatever numeric type they were given as.
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
        for name in ("n_values", "eps_values", "decoders"):
            check_type(name, getattr(self, name), tuple)
            if not getattr(self, name):
                raise ConfigError(f"{name} is empty")
        self._set("n_values", tuple(check_count("n", n, 2, MAX_N) for n in self.n_values))
        self._set("eps_values", tuple(check_epsilon(e) for e in self.eps_values))
        for d in self.decoders:
            check_choice("decoder", d, DECODER_IDS)
        # A repeated n or decoder would key the same streams and print a row twice;
        # a repeated eps value is another slot, with streams of its own.
        for name in ("n_values", "decoders"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} may not repeat a value, got {values!r}")
        most_trials = np.iinfo(np.intp).max // num_pairs(max(self.n_values))
        self._set("trials", check_count("trials", self.trials, 1, most_trials))
        self._set("seed", check_count("seed", self.seed, 0))
        check_choice("graph", self.graph, GRAPH_KINDS)
        self._set("bp_iterations", check_count("bp_iterations", self.bp_iterations, 1))
        check_choice("schedule", self.schedule, SCHEDULES)
        for name in ("include_direct", "all_zero", "shared_noise"):
            check_type(name, getattr(self, name), bool)

    def _set(self, name: str, value) -> None:
        object.__setattr__(self, name, value)  # the dataclass is frozen


@dataclass(frozen=True)
class SimResult:
    """Estimate for one (decoder, n, epsilon) cell.

    failures counts trials whose decoded consecutive bits differ anywhere
    from the true ones. pair_failures counts mistakes on the first
    consecutive bit alone, which is the quantity the analytic per-bit
    bound speaks about. stderr is the Wald standard error, replaced by
    the rule-of-three upper bound 3/trials when nothing failed.

    compare=False fields, such as pair_failures, are extras: left out of
    equality and of the default output rows, whose columns are the rest.
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


def graph_for(kind: str, n: int) -> FactorGraph:
    """The constraint graph message passing runs on for a kind and size: the
    one some caller still holds for (kind, n), with the partner tables its
    decodes built, or else a new one. At n = 2 it has one variable and no
    checks, so message passing reads the channel prior, which is the right
    answer."""
    check_choice("graph", kind, _GRAPHS)
    key = (kind, check_count("n", n, 2, MAX_N))
    # Under the lock, threads that miss at once wait for the first one's build, so all callers
    # share one graph and its tables.
    with _LIVE_LOCK:
        return _LIVE.get(key) or _LIVE.setdefault(key, _GRAPHS[kind](key[1]))


def _streams(cell: SimConfig, eps_index: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The bits and flips streams of a one-cell config, opened once per cell."""
    key = (cell.seed, _SHARED_ID if cell.shared_noise else DECODER_IDS[cell.decoders[0]], cell.n_values[0], eps_index)
    return stream(*key, _BITS), stream(*key, _FLIPS)


def _draw_words(cell: SimConfig, rngs: tuple, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """True and observed (rows, k) physical words of the next rows trials.

    Trial t reads raw 64-bit outputs [t*n, (t+1)*n) of the bits stream (a
    bit is 1 when its output is below 2^63, the same bit as a uniform below
    1/2) and [t*ceil(k/2), (t+1)*ceil(k/2)) of the flips stream, two flips
    per output (channel.apply_iid_flip). So drawing a cell in blocks of any
    size gives the bytes of one whole draw.
    """
    (n,), (epsilon,) = cell.n_values, cell.eps_values
    bits_rng, flips_rng = rngs
    b = np.zeros((rows, n), dtype=np.uint8) if cell.all_zero else bits_rng.bit_generator.random_raw((rows, n)) < _HALF
    true = encode(b)
    return true, apply_iid_flip(true, NoiseModel(epsilon), flips_rng)


def _draw_rows(n: int) -> int:
    """Trials per block of a majority or mle cell: as many as keep what the
    block holds at once within _BLOCK_BYTES, one at least. A trial holds
    4k bytes of words (its true and observed words, and apply_iid_flip's flip
    mask and flips) and 2 n^2 bytes of majority's pair matrix and the xor of
    its rows: 165 trials at n = 40, one from n = 363. It sizes memory, never
    output."""
    return max(1, _BLOCK_BYTES // (4 * num_pairs(n) + 2 * n * n))


def _cell_decoder(cell: SimConfig, cons: np.ndarray) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """The block size of a one-cell config and its block decoder, which maps a
    block's observed words to their decoded consecutive bits, (rows, n-1).
    cons is consecutive_indices(n). What every block reads is made here, once
    per cell: majority's index tables, or bp's graph and message-passing
    buffers. The kernels are looked up in this module at each call."""
    (n,), (epsilon,), (decoder,) = cell.n_values, cell.eps_values, cell.decoders
    if decoder == "majority":
        tables = _majority_tables(n)
        return _draw_rows(n), lambda obs: _majority_batch(obs, n, cell.include_direct, tables=tables)
    if decoder == "mle":
        def mle(obs):
            b = _mle_batch(obs, n)
            return b[:, :-1] ^ b[:, 1:]

        return _draw_rows(n), mle
    graph = graph_for(cell.graph, n)
    rows = _bp_rows(graph, cell.schedule)
    buffers = _bp_buffers(graph, cell.schedule, min(rows, cell.trials))  # every batch of the cell reuses them
    # The hard words, _bp_batch's second output, at the consecutive pairs.
    return rows, lambda obs: _bp_batch(graph, _prior_p0(obs, epsilon), obs, cell.bp_iterations, cell.schedule,
                                       buffers=buffers)[1][:, cons]


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
    before any trial runs, and a constraint graph past its size limit
    raises CapacityError before anything is built. _cell_decoder then
    sizes the blocks and makes their decoder once for the cell, and each
    block is drawn, decoded and scored on the consecutive pairs. An mle
    cell runs the search at every epsilon, 1/2 included, where mle_decode
    returns the degenerate all-zero word instead; so at 1/2 its counts
    differ from mle_decode's, and past n = 24 it is refused there too.
    """
    cell = SimConfig((n,), (epsilon,), (decoder,), trials, seed, graph=graph, bp_iterations=bp_iterations,
                     schedule=schedule, include_direct=include_direct, all_zero=all_zero, shared_noise=shared_noise)
    (n,), (epsilon,), trials = cell.n_values, cell.eps_values, cell.trials  # as Python ints and a float
    eps_index = check_count("eps_index", eps_index, 0)
    cons = consecutive_indices(n)
    block, decode = _cell_decoder(cell, cons)
    rngs = _streams(cell, eps_index)
    failures = pair_failures = 0
    for lo in range(0, trials, block):
        true, obs = _draw_words(cell, rngs, min(block, trials - lo))
        true = true[:, cons]  # scoring reads only these; the full words go before decoding
        decoded = decode(obs)
        failures += int((decoded != true).any(axis=1).sum())
        pair_failures += int((decoded[:, 0] != true[:, 0]).sum())
    p_fail = failures / trials
    stderr = math.sqrt(p_fail * (1.0 - p_fail) / trials) if failures else 3.0 / trials
    return SimResult(
        decoder=decoder,
        graph=graph,
        n=n,
        epsilon=epsilon,
        iterations=cell.bp_iterations if decoder == "bp" else 0,
        trials=trials,
        failures=failures,
        p_fail=p_fail,
        stderr=stderr,
        chernoff=chernoff_bound(n, epsilon),
        union_bound=union_bound(n, epsilon),
        seed=cell.seed,
        pair_failures=pair_failures,
    )


def run_sweep(config: SimConfig, threads: int = 1) -> SweepResult:
    """Run every cell of the sweep, in (decoder, n, epsilon) row order.

    The (decoder, n) groups run one after another on the calling thread, each
    inside its own call, so a sweep holds one group's graph at a time. A bp
    group takes its constraint graph from graph_for and builds its partner
    table before any cell starts, so every cell's graph_for returns that
    graph and table. The group's eps cells are independent, so they are
    spread over one pool of worker threads, at most one per eps cell and per
    CPU, and collected back in row order; with one worker they run on the
    calling thread, which starts no thread.
    A cell refused on capacity grounds (search or graph size) yields a
    CellError instead of aborting the sweep. Those limits depend on the
    decoder and n alone, so a refusal covers each eps cell of its group.
    """
    check_type("config", config, SimConfig)
    threads = check_count("threads", threads, 1)
    # Past the three sweep axes, SimConfig's fields are run_cell's keywords.
    settings = {f.name: getattr(config, f.name) for f in fields(SimConfig)[3:]}
    workers = min(threads, len(config.eps_values), os.cpu_count() or 1)

    def run_group(cells_map, dec, n):
        try:
            if dec == "bp":  # the group holds its graph until it returns, and builds its table before any cell
                graph = graph_for(config.graph, n)
                _partners(graph, config.schedule)
            return list(cells_map(lambda ei, eps: run_cell(n, eps, dec, eps_index=ei, **settings),
                                  range(len(config.eps_values)), config.eps_values))
        except CapacityError as exc:
            return [CellError(decoder=dec, n=n, epsilon=eps, message=str(exc)) for eps in config.eps_values]

    with ThreadPoolExecutor(max_workers=workers) as pool:  # it starts no thread before its map is called
        cells_map = pool.map if workers > 1 else map  # one worker: the cells run on the calling thread
        outcomes = [o for dec in config.decoders for n in config.n_values for o in run_group(cells_map, dec, n)]
    return SweepResult(rows=tuple(o for o in outcomes if isinstance(o, SimResult)),
                       errors=tuple(o for o in outcomes if isinstance(o, CellError)))
