"""Node budgets for exact searches.

Every potentially exponential search in the package ticks a Budget; when the
limit is hit the search raises BudgetExceededError rather than returning an
approximate answer.
"""

from __future__ import annotations

from .errors import BudgetExceededError, InputError

DEFAULT_NODE_BUDGET = 10**8


class Budget:
    """A mutable counter of search nodes shared across nested calls."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = DEFAULT_NODE_BUDGET):
        if limit is not None and limit < 0:
            raise InputError("budget limit must be nonnegative")
        self.limit = limit
        self.used = 0

    def tick(self, count: int = 1) -> None:
        self.used += count
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError(f"search budget of {self.limit} nodes exceeded")

    @property
    def remaining(self) -> int | None:
        if self.limit is None:
            return None
        return max(self.limit - self.used, 0)


def ensure_budget(budget: Budget | None) -> Budget:
    """Return the given budget, or a fresh default-sized one."""
    return budget if budget is not None else Budget()
