"""Shared exception types, the work ``Meter`` and the default limits it meters."""

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
    """A phase of work went past its limit: ``phase`` names the work,
    ``reached`` is the count that passed ``limit``."""

    def __init__(self, phase: str, reached: int, limit):
        self.phase, self.reached, self.limit = phase, reached, limit
        super().__init__(f"{phase} exceeded {limit} (reached {reached})")


class Meter:
    """Work ``used`` in one phase; ``charge`` raises SizeLimitError once it
    passes ``limit`` (``math.inf`` never does)."""

    __slots__ = ("phase", "limit", "used")

    def __init__(self, phase: str, limit):
        self.phase, self.limit, self.used = phase, limit, 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise SizeLimitError(self.phase, self.used, self.limit)


class CyclicGraphError(ValueError):
    """A directed graph required to be acyclic contains a cycle."""
