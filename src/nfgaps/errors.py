"""Exception types shared across the package."""

__all__ = ["PreconditionError"]


class PreconditionError(ValueError):
    """An operation was called with inputs that violate its contract.

    The message states the violated precondition; the CLI prints it
    verbatim and exits with status 2.
    """
