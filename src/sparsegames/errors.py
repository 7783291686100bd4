"""Exception types shared across the package."""


class SparseGamesError(Exception):
    """Base class for all errors raised by this package."""


class GameFormatError(SparseGamesError):
    """Malformed game text.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InitLosingError(SparseGamesError):
    """The initial position is outside the winning region; there is no
    winning strategy to extract."""


class NotAlternatingError(SparseGamesError):
    """The game does not strictly alternate between the two players."""


class InitNotPlayer1Error(SparseGamesError):
    """Mealy translation requires the play to start with a player-1 move."""


class SearchSpaceTooLargeError(SparseGamesError):
    """The brute-force oracle refuses instances beyond its guard."""


class LpTooLargeError(SparseGamesError):
    """A reduced LP whose dense simplex tableau exceeds the memory budget
    ``sparsegames.lp.LP_TABLEAU_BYTES``."""


class TimeoutExceededError(SparseGamesError):
    """A wall-clock deadline expired inside a long-running engine."""
