"""Exception types shared across the package, and the deadline helpers
that raise SearchTimeout."""

import os
import time
from itertools import islice
from typing import Iterator, TypeVar

DEADLINE_EVERY = 1024   # members listed between two deadline checks

_T = TypeVar("_T")


class GraphFormatError(ValueError):
    """A graph file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigurationError(ValueError):
    """Invalid solver configuration (bad imposition order, weights, bounds)."""


class GuardExceeded(RuntimeError):
    """An exhaustive routine refused to run above its size guard."""


def check_size_guard(name: str, v: int, max_v: int | None, env: str, default: int) -> None:
    """Refuse (GuardExceeded) to run ``name`` on v vertices above its size
    guard: ``max_v``, else the integer in the environment variable ``env``,
    else ``default``.  A non-integer ``env`` is a ConfigurationError that
    names it."""
    guard = max_v
    if guard is None:
        text = os.environ.get(env, str(default))
        try:
            guard = int(text)
        except ValueError:
            raise ConfigurationError(f"{env} must be an integer, got {text!r}") from None
    if v > guard:
        raise GuardExceeded(
            f"{name} refuses v={v} above its size guard {guard}; raise {env} to override")


class SearchTimeout(RuntimeError):
    """A solver run exceeded its deadline."""


def _deadline(timeout_s: float | None) -> float | None:
    return None if timeout_s is None else time.monotonic() + timeout_s


def _until(items: Iterator[_T], deadline: float) -> Iterator[_T]:
    """``items`` as they come; raises SearchTimeout once ``deadline`` (on
    time.monotonic()) has passed, checked every DEADLINE_EVERY items."""
    while chunk := list(islice(items, DEADLINE_EVERY)):
        _check_deadline(deadline)
        yield from chunk


def _check_deadline(deadline: float | None) -> None:
    """Raise SearchTimeout if ``deadline`` (on time.monotonic()) has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout("search exceeded its time budget")


def _remaining(deadline: float | None) -> float | None:
    """The seconds left until ``deadline``, as a ``timeout_s``."""
    return None if deadline is None else deadline - time.monotonic()


class StackBoundWarning(RuntimeWarning):
    """The working stack grew beyond the edge-count bound claimed for it.

    The bound lacks a proof, so violations are observations, not errors.
    """
