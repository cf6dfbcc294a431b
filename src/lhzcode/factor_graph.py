"""Parity-check matrices held as sparse factor graphs, plus GF(2) helpers.

A FactorGraph is the bipartite view of a binary parity-check matrix: one
tuple of variable indices per even-parity constraint. Constructors cover
the two constraint systems of the pairwise-parity code: the full triangle
set and the planar subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .codes import MAX_N, as_bits, num_pairs, pair_index
from .errors import CapacityError, ConfigError, DimensionError, check_count, check_type

__all__ = [
    "FactorGraph",
    "triangle_graph",
    "planar_lhz_graph",
    "syndrome",
    "gf2_rank",
    "enumerate_codewords",
]

# (check, variable) edges the graph constructors refuse to pass, past triangle n = 323 and planar n = 2898:
# each costs ~40 bytes of tuples, and message passing float64 arrays of one entry per trial.
_MAX_EDGES = 1 << 24


@dataclass(frozen=True)
class FactorGraph:
    """n_vars variable nodes and one even-parity check per index tuple.

    Graphs are cache keys (decoders._bp_layout), so the hash of the checks is
    computed once here rather than on every lookup.
    """

    n_vars: int
    checks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_count("n_vars", self.n_vars, 0)
        check_type("checks", self.checks, tuple)
        for c in self.checks:
            check_type("check", c, tuple)
            for v in c:
                check_count("check variable", v, 0, self.n_vars - 1)
            if len(set(c)) != len(c):
                raise ConfigError(f"check {c} touches a variable twice")
        object.__setattr__(self, "_hash", hash((self.n_vars, self.checks)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_checks(self) -> int:
        return len(self.checks)


def triangle_graph(n: int) -> FactorGraph:
    """All C(n,3) weight-3 checks g_ij + g_ik + g_jk = 0 (mod 2).

    Heavily redundant: every variable sits in n-2 triangles, while only
    k - n + 1 checks are independent. At n = 2 there are none. Past
    _MAX_EDGES edges it raises CapacityError.
    """
    check_count("n", n, 2, MAX_N)
    _check_edges("triangle", n, 3 * math.comb(n, 3))
    return _triangle_graph(n)


def _check_edges(kind: str, n: int, edges: int) -> None:
    if edges > _MAX_EDGES:  # counted in closed form, before anything is built
        raise CapacityError(f"the {kind} graph at n={n} has {edges} edges, past the {_MAX_EDGES}-edge limit")


@lru_cache(maxsize=None)
def _triangle_graph(n: int) -> FactorGraph:
    checks = tuple(
        (pair_index(i, j, n), pair_index(i, k, n), pair_index(j, k, n))
        for i, j, k in combinations(range(1, n + 1), 3)
    )
    return FactorGraph(num_pairs(n), checks)


def planar_lhz_graph(n: int) -> FactorGraph:
    """The planar constraint subset: n-2 boundary triangles, then plaquettes.

    Boundary check i (1 <= i <= n-2) ties (i,i+1), (i,i+2), (i+1,i+2).
    Plaquette (i,j) for 1 <= i, i+2 <= j <= n-1 ties the four corners
    (i,j), (i,j+1), (i+1,j), (i+1,j+1), emitted row-major in (i, j).
    Total k - n + 1 checks, which is exactly the GF(2) rank, so none is
    redundant; at n = 2 that is none. Past _MAX_EDGES edges it raises CapacityError.
    """
    check_count("n", n, 2, MAX_N)
    _check_edges("planar", n, 3 * (n - 2) + 4 * math.comb(n - 2, 2))
    return _planar_lhz_graph(n)


@lru_cache(maxsize=None)
def _planar_lhz_graph(n: int) -> FactorGraph:
    checks: list[tuple[int, ...]] = []
    for i in range(1, n - 1):
        checks.append((pair_index(i, i + 1, n), pair_index(i, i + 2, n), pair_index(i + 1, i + 2, n)))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            checks.append(
                (
                    pair_index(i, j, n),
                    pair_index(i, j + 1, n),
                    pair_index(i + 1, j, n),
                    pair_index(i + 1, j + 1, n),
                )
            )
    return FactorGraph(num_pairs(n), tuple(checks))


def syndrome(graph: FactorGraph, word) -> np.ndarray:
    """Parity of each check on the given word; all zeros iff a codeword."""
    check_type("graph", graph, FactorGraph)
    w = as_bits(word)
    if w.size != graph.n_vars:
        raise DimensionError(f"word length {w.size} does not match {graph.n_vars} variables")
    s = np.zeros(graph.n_checks, dtype=np.uint8)
    for ci, c in enumerate(graph.checks):
        if c:
            s[ci] = np.bitwise_xor.reduce(w[list(c)])
    return s


def _packed_rows(graph: FactorGraph) -> list[int]:
    rows = []
    for c in graph.checks:
        row = 0
        for v in c:
            row ^= 1 << v
        rows.append(row)
    return rows


def gf2_rank(graph: FactorGraph) -> int:
    """Rank of the check matrix over GF(2), by elimination on bit-packed rows."""
    check_type("graph", graph, FactorGraph)
    pivots: dict[int, int] = {}
    for row in _packed_rows(graph):
        while row:
            b = row.bit_length() - 1
            if b in pivots:
                row ^= pivots[b]
            else:
                pivots[b] = row
                break
    return len(pivots)


def enumerate_codewords(graph: FactorGraph, max_vars: int = 24) -> set[tuple[int, ...]]:
    """Every word with all-zero syndrome, as a set of 0/1 tuples.

    Builds a nullspace basis by Gauss-Jordan elimination, then expands all
    2^(n_vars - rank) combinations. Refuses graphs wider than max_vars.
    """
    check_type("graph", graph, FactorGraph)
    check_count("max_vars", max_vars, 0)
    n = graph.n_vars
    if n > max_vars:
        raise CapacityError(f"enumeration over {n} variables exceeds the {max_vars}-variable limit")
    # Reduced echelon form with the lowest set bit of each row as pivot.
    pivot_rows: dict[int, int] = {}
    for row in _packed_rows(graph):
        for col, prow in pivot_rows.items():
            if row >> col & 1:
                row ^= prow
        if row:
            col = (row & -row).bit_length() - 1
            for pc in list(pivot_rows):
                if pivot_rows[pc] >> col & 1:
                    pivot_rows[pc] ^= row
            pivot_rows[col] = row
    free_cols = [c for c in range(n) if c not in pivot_rows]
    basis = []
    for f in free_cols:
        vec = 1 << f
        for col, prow in pivot_rows.items():
            if prow >> f & 1:
                vec |= 1 << col
        basis.append(vec)
    words = set()
    for m in range(1 << len(basis)):
        w = 0
        for t, bv in enumerate(basis):
            if m >> t & 1:
                w ^= bv
        words.add(tuple(w >> v & 1 for v in range(n)))
    return words
