"""Parity-check matrices held as sparse factor graphs.

A FactorGraph is the bipartite view of a binary parity-check matrix: one
even-parity constraint per check, held as two read-only int32 arrays, the
checks' variable indices back to back and where each check starts.
Constructors cover the two constraint systems of the pairwise-parity code:
the full triangle set and the planar subset. Both compute their checks'
pair indices as arrays and hand the arrays over as they are; the tuple view
`checks` is built only when something reads it.
"""

from __future__ import annotations

import math
import threading
from functools import cached_property
from itertools import chain

import numpy as np

from .codes import MAX_N, _pair_ids, num_pairs
from .errors import CapacityError, ConfigError, check_count, check_type

__all__ = ["FactorGraph", "triangle_graph", "planar_lhz_graph"]

# (check, variable) edges the graph constructors refuse to pass, past triangle n = 323 and planar n = 2898:
# each costs 4 bytes of int32 entries, and message passing float64 arrays of one entry per trial.
_MAX_EDGES = 1 << 24
_INT32_MAX = int(np.iinfo(np.int32).max)


class FactorGraph:
    """n_vars variable nodes and one even-parity check per index tuple.

    The checks are held as read-only int32 arrays: entries, every check's
    variables back to back, and offsets, n_checks + 1 of them, so check c is
    entries[offsets[c]:offsets[c + 1]]. checks is their tuple view, built on
    first access. Variable indices past int32 raise CapacityError. Graphs
    compare and hash by identity, and a pickled or deep-copied graph keeps
    its arrays read-only. A graph also holds the partner tables its decodes
    built, one per schedule, and the lock they are built under, so a table
    goes when its graph goes.
    """

    def __init__(self, n_vars: int, checks: tuple[tuple[int, ...], ...]):
        n_vars = check_count("n_vars", n_vars, 0)
        check_type("checks", checks, tuple)
        for c in checks:
            check_type("check", c, tuple)
            for v in c:
                if check_count("check variable", v, 0, n_vars - 1) > _INT32_MAX:
                    raise CapacityError(f"check variable {v} is past the int32 limit {_INT32_MAX}")
            if len(set(c)) < len(c):
                raise ConfigError(f"check {tuple(map(int, c))} touches a variable twice")
        offsets = np.zeros(len(checks) + 1, dtype=np.int32)
        np.cumsum(np.fromiter(map(len, checks), np.int32, len(checks)), out=offsets[1:])
        self._adopt(n_vars, np.fromiter(chain.from_iterable(checks), np.int32, int(offsets[-1])), offsets)

    def _adopt(self, n_vars: int, entries: np.ndarray, offsets: np.ndarray) -> None:
        """Make int32 entries and offsets, laid out as above, read-only and keep
        them, with no partner table yet and a lock of the graph's own."""
        entries.setflags(write=False)
        offsets.setflags(write=False)
        for name, value in (("n_vars", n_vars), ("entries", entries), ("offsets", offsets),
                            ("_tables", {}), ("_lock", threading.Lock())):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"FactorGraph is immutable: cannot set {name}")

    def __reduce__(self):
        # pickle and copy.deepcopy rebuild a graph from its three arrays through _adopt, so a copy's
        # arrays are read-only too, and it starts with no partner table and a new lock
        return _adopted, (self.n_vars, self.entries, self.offsets)

    @property
    def n_checks(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def checks(self) -> tuple[tuple[int, ...], ...]:
        """One tuple of variable indices per check, built from the arrays."""
        flat, ends = self.entries.tolist(), self.offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))


def _stacked(n_vars: int, *blocks: np.ndarray) -> FactorGraph:
    """The graph whose checks are the rows of each 2-D int32 block in turn,
    built from arrays without going through tuples or checking them: the
    built-in constructors' blocks are correct by construction. One
    C-contiguous block is kept as a flat view, not copied."""
    offsets, top = [np.zeros(1, dtype=np.int32)], 0
    for b in blocks:
        offsets.append(top + b.shape[1] * np.arange(1, len(b) + 1, dtype=np.int32))
        top += b.size
    entries = blocks[0].ravel() if len(blocks) == 1 else np.concatenate([b.ravel() for b in blocks])
    return _adopted(n_vars, entries, np.concatenate(offsets))


def _adopted(n_vars: int, entries: np.ndarray, offsets: np.ndarray) -> FactorGraph:
    """The graph that keeps int32 entries and offsets as they are, unchecked:
    a built-in constructor's, or those of a graph being unpickled or copied."""
    graph = FactorGraph.__new__(FactorGraph)
    graph._adopt(n_vars, entries, offsets)
    return graph


def triangle_graph(n: int) -> FactorGraph:
    """All C(n,3) weight-3 checks g_ij + g_ik + g_jk = 0 (mod 2).

    Heavily redundant: every variable sits in n-2 triangles, while only
    k - n + 1 checks are independent. At n = 2 there are none. Past
    _MAX_EDGES edges it raises CapacityError.
    """
    n = check_count("n", n, 2, MAX_N)
    _check_edges("triangle", n, 3 * math.comb(n, 3))
    # Checks i < j < k in lexicographic order: each pair (i, j), row-major,
    # meets k = j+1..n, where index(i, k) = index(i, j) + m + 1 and
    # index(j, k) = index(j, j+1) + m for m = k - j - 1.
    i, j = (x.astype(np.int32) + 1 for x in np.triu_indices(n, 1))
    runs = n - j
    first = np.repeat(_pair_ids(i, j, n), runs)
    m = np.arange(first.size, dtype=np.int32) - np.repeat(np.cumsum(runs, dtype=np.int32) - runs, runs)
    checks = np.empty((first.size, 3), dtype=np.int32)
    checks[:, 0] = first
    np.add(first, m + 1, out=checks[:, 1])
    np.add(np.repeat(_pair_ids(j, j + 1, n), runs), m, out=checks[:, 2])
    return _stacked(num_pairs(n), checks)


def _check_edges(kind: str, n: int, edges: int) -> None:
    if edges > _MAX_EDGES:  # counted in closed form, before anything is built
        raise CapacityError(f"the {kind} graph at n={n} has {edges} edges, past the {_MAX_EDGES}-edge limit")


def planar_lhz_graph(n: int) -> FactorGraph:
    """The planar constraint subset: n-2 boundary triangles, then plaquettes.

    Boundary check i (1 <= i <= n-2) ties (i,i+1), (i,i+2), (i+1,i+2).
    Plaquette (i,j) for 1 <= i, i+2 <= j <= n-1 ties the four corners
    (i,j), (i,j+1), (i+1,j), (i+1,j+1), emitted row-major in (i, j).
    Total k - n + 1 checks, which is exactly the GF(2) rank, so none is
    redundant; at n = 2 that is none. Past _MAX_EDGES edges it raises CapacityError.
    """
    n = check_count("n", n, 2, MAX_N)
    _check_edges("planar", n, 3 * (n - 2) + 4 * math.comb(n - 2, 2))
    i = np.arange(1, n - 1, dtype=np.int32)
    boundary = np.stack([_pair_ids(i, i + 1, n), _pair_ids(i, i + 2, n), _pair_ids(i + 1, i + 2, n)], axis=1)
    i, j = (x.astype(np.int32) + 1 for x in np.triu_indices(n - 1, 2))  # 1 <= i, i+2 <= j <= n-1, row-major
    plaquettes = np.stack(
        [_pair_ids(i, j, n), _pair_ids(i, j + 1, n), _pair_ids(i + 1, j, n), _pair_ids(i + 1, j + 1, n)], axis=1
    )
    return _stacked(num_pairs(n), boundary, plaquettes)
