"""Exception and warning types shared across the package."""

__all__ = ["InvalidParameterError", "ResourceLimitError", "RegularityError",
           "PatienceOrderWarning"]


class InvalidParameterError(ValueError):
    """An argument violates an operation's contract."""


class ResourceLimitError(RuntimeError):
    """A guard against combinatorial blow-up was exceeded."""


class RegularityError(ValueError):
    """A buyer discount assigns the same discounted quantity to two strategies.

    The colliding pair of strategies (as decision strings) is attached when
    known, since callers typically want to report or perturb around it.
    """

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class PatienceOrderWarning(UserWarning):
    """The discounts do not satisfy the hypothesis of the scheme's optimality."""
