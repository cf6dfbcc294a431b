"""Pairwise-parity spin encoding treated as a classical LDPC code.

n logical bits map to k = n(n-1)/2 physical parity bits g_ij = b_i xor b_j.
The package provides the encoding and its index algebra (codes), the
triangle and planar constraint graphs (factor_graph), the i.i.d. flip
channel (channel), majority / message-passing / exhaustive decoders
(decoders), a seeded Monte Carlo harness with analytic bounds (sim), and a
CLI (cli).
"""

from .channel import NoiseModel, apply_iid_flip, channel_prior, stream
from .codes import (
    as_bits,
    consecutive_indices,
    encode,
    index_pair,
    logical_from_consecutive,
    num_logical,
    num_pairs,
    pair_index,
    pair_table,
)
from .decoders import (
    DecodeOutcome,
    bp_decode,
    epsilon_star,
    majority_vote_decode,
    mle_decode,
)
from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    InconsistentEvidenceError,
    InvalidPairError,
    LhzError,
)
from .factor_graph import FactorGraph, planar_lhz_graph, triangle_graph
from .sim import (
    CellError,
    SimConfig,
    SimResult,
    SweepResult,
    chernoff_bound,
    run_cell,
    run_sweep,
    union_bound,
)

__version__ = "0.1.0"
