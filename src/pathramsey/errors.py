"""Exception types shared across the package."""

from __future__ import annotations

import sys


class PathRamseyError(Exception):
    """Base class for all package errors."""


class GraphFormatError(PathRamseyError):
    """Malformed edge-list text or inconsistent graph data."""


class ParameterError(PathRamseyError):
    """A parameter violates a documented precondition (domain error)."""


class CertificationError(PathRamseyError):
    """Density certification failed after exhausting the retry budget; the message names the last failing pair."""


class NoPathFoundError(PathRamseyError):
    """Constrained path search exhausted; carries the longest path achieved."""

    def __init__(self, message: str, longest: tuple[int, ...] = ()):
        super().__init__(message)
        self.longest = longest


class BudgetExceededError(PathRamseyError):
    """An exhaustive enumeration would exceed the configured budget."""


def _count_text(n: int) -> str:
    """n in decimal, or a bound that prints when n has more digits than the interpreter prints (0: no limit)."""
    digits = sys.get_int_max_str_digits()
    return f"at least 10**{digits}" if digits and n >= 10 ** digits else str(n)


class PreconditionError(PathRamseyError):
    """A checked precondition on input structure failed."""


class ConstructionError(PathRamseyError):
    """An internal construction step that should be impossible to break, broke."""


class LLLFailureError(PathRamseyError):
    """Resampling budget exhausted; carries per-event violation statistics."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


class BaseCaseError(PathRamseyError):
    """Base-case driver could not supply a long enough path; carries achieved length."""

    def __init__(self, message: str, achieved: int = 0):
        super().__init__(message)
        self.achieved = achieved
