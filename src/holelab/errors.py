"""Exception hierarchy shared by all holelab modules."""

from __future__ import annotations


class HolelabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HolelabError):
    """A caller-supplied argument violates a documented precondition."""


class BudgetExceededError(HolelabError):
    """An exact search ran out of its node budget.

    Exact NP-hard kernels never degrade to approximations silently; when the
    budget trips they raise this, carrying whatever safe information was
    established so far (bracketing bounds, partial result lists).
    """

    def __init__(self, message: str, *, lower=None, upper=None, partial=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.partial = partial


def budget_message(search: str, cause: Exception) -> str:
    """The message of the BudgetExceededError that search raises on cause:
    the node budget ran out, or (a RecursionError) the search, one Python
    frame per step, went deeper than the interpreter allows, which is
    refused like a spent budget rather than crashing."""
    if isinstance(cause, RecursionError):
        return f"{search} recurses deeper than the interpreter allows"
    return f"{search} budget exceeded"


class RefinementError(HolelabError):
    """A multicover refinement round could not reach its threshold."""

    def __init__(self, round_index: int, message: str | None = None):
        super().__init__(message or f"refinement failed at round {round_index}")
        self.round_index = round_index


class ChordError(HolelabError):
    """A would-be hole has a chord; names the offending vertex pair."""

    def __init__(self, u: int, v: int):
        super().__init__(f"chord between vertices {u} and {v}")
        self.chord = (u, v)
