"""Exception types and the worker-count rule shared across the package."""
from __future__ import annotations

import os

__all__ = ["PreconditionError"]


class PreconditionError(ValueError):
    """An operation was called with inputs that violate its contract.

    The message states the violated precondition; the CLI prints it
    verbatim and exits with status 2.
    """


def _thread_count(threads: int | None) -> int:
    """The worker cap a `--threads` value gives: None means min(8, CPUs)."""
    if threads is None:
        return min(8, os.cpu_count() or 1)
    if threads < 1:
        raise PreconditionError(f"threads must be >= 1 (--threads); got {threads}")
    return threads
