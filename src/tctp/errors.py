"""Shared exception types and the default limits a SizeLimitError reports."""

STATE_LIMIT = 10**7  # states of an exact knowledge-state search
VERIFY_LIMIT = 200_000  # reveal states the verifier explores
TABLE_STEPS = 10**7  # steps of one budget table (cells, then pi_row's candidates), 40-95 ns each
TABLE_CELLS = 2 * 10**7  # cells that dag-solve --table prints


class InstanceFormatError(ValueError):
    """Raised when an instance file cannot be parsed or fails validation.

    Carries the 1-based source line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SizeLimitError(RuntimeError):
    """An exhaustive search exceeded its configured state budget."""

    def __init__(self, message: str, limit: int | None = None):
        self.limit = limit
        super().__init__(message)


class CyclicGraphError(ValueError):
    """A directed graph required to be acyclic contains a cycle."""
