"""Exception types shared across the package."""


class LhzError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidPairError(LhzError, ValueError):
    """Pair (i, j) outside 1 <= i < j <= n, or a linear index out of range."""


class ConfigError(LhzError, ValueError):
    """A value outside its domain: size, epsilon, decoder, graph, schedule, counts,
    bits, prior rows, check indices, or an unreadable command line number."""


class DimensionError(LhzError, ValueError):
    """A word length that does not match the expected layout."""


class DegenerateSizeError(LhzError, ValueError):
    """Graph construction asked for an n too small to have any checks."""


class CapacityError(LhzError, RuntimeError):
    """Exhaustive enumeration would exceed the configured size limit."""


class InconsistentEvidenceError(LhzError, RuntimeError):
    """All probability mass cancelled during a belief update (conflicting hard evidence)."""
