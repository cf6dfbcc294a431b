"""Exception types, and the one home of each input rule that every public
entry point checks with: integers, flip probabilities, table choices and
object types. A broken rule raises ConfigError."""

import numbers
import operator


class LhzError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidPairError(LhzError, ValueError):
    """Pair (i, j) outside 1 <= i < j <= n, or a linear index out of range."""


class ConfigError(LhzError, ValueError):
    """A value of the wrong type or outside its domain: a size, count or key,
    epsilon, decoder, graph, schedule, a typed model/graph/config/generator,
    bits, ragged arrays, prior rows, check indices, an unreadable command
    line number, or an output path that cannot be opened for writing."""


class DimensionError(LhzError, ValueError):
    """A word length that does not match the expected layout."""


class CapacityError(LhzError, RuntimeError):
    """Refused work past a size limit: an exhaustive search or a constraint graph."""


class InconsistentEvidenceError(LhzError, RuntimeError):
    """All probability mass cancelled during a belief update (conflicting hard evidence)."""


def check_count(name: str, value, least=None, most=None) -> int:
    """The one integer rule: an int or numpy integer, never a bool or a float,
    and within [least, most] where those are given. Returns the value as a
    Python int, which callers compute with: a fixed-width numpy integer would
    wrap silently in their index arithmetic."""
    integer = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
    number = operator.index(value) if integer else None
    if number is None or (least is not None and number < least) or (most is not None and number > most):
        limits = " and ".join(f"{op} {b}" for op, b in ((">=", least), ("<=", most)) if b is not None)
        raise ConfigError(f"need an integer {name} {limits}".rstrip() + f", got {value!r}")
    return number


def check_epsilon(epsilon) -> None:
    """The one flip-probability rule: a real number, not a bool, in [0, 1/2]."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real) or not 0.0 <= epsilon <= 0.5:
        raise ConfigError(f"epsilon must be a real number in [0, 1/2], got {epsilon!r}")


def check_choice(name: str, value, options) -> None:
    """The one table-lookup rule: value is one of options (unhashables never are)."""
    try:
        hash(value)  # an array would compare elementwise; no table holds one
        known = value in options
    except TypeError:
        known = False
    if not known:
        raise ConfigError(f"unknown {name} {value!r}, expected one of {sorted(options)}")


def check_type(name: str, value, cls: type) -> None:
    """The one object rule: a parameter typed as cls takes only a cls."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
