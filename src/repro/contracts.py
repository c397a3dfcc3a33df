"""Runtime counterparts of the static unit rules.

The linter (:mod:`repro.lint`) proves at the AST level that availability
identifiers are treated as fractions; these validators enforce the same
invariant on *values* at the subsystem boundaries -- the sensor read path
and the predictor ingest path.  They are assert-cheap (one comparison
chain per call) and can be disabled wholesale for production hot loops by
setting ``REPRO_CONTRACTS=0`` in the environment.  This module imports
only the standard library, so using a contract never loads the linter.

``ContractError`` subclasses :class:`ValueError`, so callers that already
guard against bad measurements with ``except ValueError`` keep working.
"""

from __future__ import annotations

import functools
import os

__all__ = [
    "ContractError",
    "checked_fraction",
    "contracts_enabled",
    "ensure_fraction",
]

#: Environment variable consulted on every failing check; any of ``0``,
#: ``off``, ``false``, ``no`` (case-insensitive) disables the runtime
#: contracts.
ENV_VAR = "REPRO_CONTRACTS"

_DISABLED_VALUES = frozenset({"0", "off", "false", "no"})


class ContractError(ValueError):
    """A runtime value violated a domain contract."""


def contracts_enabled() -> bool:
    """Whether runtime contracts are active (default: yes)."""
    return os.environ.get(ENV_VAR, "1").strip().lower() not in _DISABLED_VALUES


def ensure_fraction(value: float, *, name: str = "availability") -> float:
    """Validate that ``value`` is a finite fraction in [0, 1].

    Returns the value unchanged so it can be used inline::

        availability = ensure_fraction(clamp_fraction(raw))

    Raises
    ------
    ContractError
        If the value is NaN, infinite, or outside [0, 1] -- unless
        contracts are disabled via ``REPRO_CONTRACTS=0``, in which case
        the value passes through untouched.
    """
    # NaN fails both comparisons, so this one chain catches NaN, +/-inf
    # and out-of-range values alike.  The environment is read only for a
    # value that fails it: a passing value is returned either way.
    if 0.0 <= value <= 1.0 or not contracts_enabled():
        return value
    raise ContractError(f"{name} must be a fraction in [0, 1], got {value!r}")


def checked_fraction(func):
    """Decorator: the wrapped callable must return a fraction in [0, 1].

    Applied to sensor measurement entry points so a drifting formula
    fails loudly at the source instead of poisoning downstream
    forecasts.  Honours the same ``REPRO_CONTRACTS`` kill switch as
    :func:`ensure_fraction` (checked per call, so tests can toggle it).
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        return ensure_fraction(result, name=f"{func.__qualname__}() result")

    return wrapper
