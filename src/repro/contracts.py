"""Runtime contracts: availability is a finite fraction in [0, 1].

These validators check *values* at the subsystem boundaries -- the
sensor read path and the predictor ingest path -- so a NaN or an
out-of-range availability fails where it enters instead of skewing
every forecast after it.  They are assert-cheap (one comparison chain
per call) and always on.  This module imports only the standard
library.

``ContractError`` subclasses :class:`ValueError`, so callers that already
guard against bad measurements with ``except ValueError`` keep working.
"""

from __future__ import annotations

import functools

__all__ = ["ContractError", "checked_fraction", "ensure_fraction"]


class ContractError(ValueError):
    """A runtime value violated a domain contract."""


def ensure_fraction(value: float, *, name: str = "availability") -> float:
    """Validate that ``value`` is a finite fraction in [0, 1].

    Returns the value unchanged so it can be used inline::

        availability = ensure_fraction(clamp_fraction(raw))

    Raises
    ------
    ContractError
        If the value is NaN, infinite, or outside [0, 1].
    """
    # NaN fails both comparisons, so this one chain catches NaN, +/-inf
    # and out-of-range values alike.
    if 0.0 <= value <= 1.0:
        return value
    raise ContractError(f"{name} must be a fraction in [0, 1], got {value!r}")


def checked_fraction(func):
    """Decorator: the wrapped callable must return a fraction in [0, 1].

    Applied to sensor measurement entry points so a drifting formula
    fails loudly at the source instead of poisoning downstream
    forecasts.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        return ensure_fraction(result, name=f"{func.__qualname__}() result")

    return wrapper
