"""Parity-check matrices held as sparse factor graphs.

A FactorGraph is the bipartite view of a binary parity-check matrix: one
tuple of variable indices per even-parity constraint. Constructors cover
the two constraint systems of the pairwise-parity code: the full triangle
set and the planar subset. Both compute their checks' pair indices as
arrays and turn the rows into tuples once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .codes import MAX_N, _pair_ids, num_pairs
from .errors import CapacityError, ConfigError, check_count, check_type

__all__ = ["FactorGraph", "triangle_graph", "planar_lhz_graph"]

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
    ijk = np.fromiter(chain.from_iterable(combinations(range(1, n + 1), 3)), np.intp, 3 * math.comb(n, 3))
    i, j, k = ijk.reshape(-1, 3).T
    checks = np.stack([_pair_ids(i, j, n), _pair_ids(i, k, n), _pair_ids(j, k, n)], axis=1)
    return FactorGraph(num_pairs(n), _tuples(checks))


def _tuples(rows: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rows.tolist()))


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
    i = np.arange(1, n - 1, dtype=np.intp)
    boundary = np.stack([_pair_ids(i, i + 1, n), _pair_ids(i, i + 2, n), _pair_ids(i + 1, i + 2, n)], axis=1)
    i, j = (x + 1 for x in np.triu_indices(n - 1, 2))  # 1 <= i, i+2 <= j <= n-1, row-major
    plaquettes = np.stack(
        [_pair_ids(i, j, n), _pair_ids(i, j + 1, n), _pair_ids(i + 1, j, n), _pair_ids(i + 1, j + 1, n)], axis=1
    )
    return FactorGraph(num_pairs(n), _tuples(boundary) + _tuples(plaquettes))
