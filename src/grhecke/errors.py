"""Exception types shared across the package."""

__all__ = [
    "InvalidInputError", "EmptyClassError", "ExactDivisionError",
    "SingularSystemError", "ConstructionError", "BasisIncompleteError",
    "InvariantViolationError",
]


class InvalidInputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class EmptyClassError(InvalidInputError):
    """Requested a conjugacy class that does not exist in the given S_n."""


class ExactDivisionError(ArithmeticError):
    """A polynomial division expected to be exact left a remainder."""


class SingularSystemError(Exception):
    """A linear system was inconsistent.

    Carries the computed rank so callers can report it.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


class ConstructionError(Exception):
    """Building a Geck-Rouquier element failed one of its defining checks."""


class BasisIncompleteError(Exception):
    """A central element does not lie in the span of the materialized basis."""


class InvariantViolationError(Exception):
    """A computation contradicted a property the engine relies on."""
