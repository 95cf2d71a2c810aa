"""Exception types raised across the package."""


class FactorIdError(Exception):
    """Base class for all factorid errors."""


class InvalidArgumentError(FactorIdError, ValueError):
    """An argument has a value the function does not accept (s < 0, an entry
    other than 0/1, an unknown format, a malformed matching or row label)."""


class OutOfRangeError(FactorIdError, IndexError):
    """A row or column index lies outside the pattern."""


class ParseError(FactorIdError):
    """Input text is not a valid pattern (bad character, bad JSON, ...)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" at line {line}"
            if column is not None:
                where += f", column {column}"
        elif column is not None:
            where = f" at column {column}"
        super().__init__(message + where)
        self.line = line
        self.column = column


class DimensionError(FactorIdError):
    """Rows have inconsistent lengths, or declared dimensions do not match."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


class EmptyInputError(FactorIdError):
    """Input contains no pattern cells at all."""


class MatchingNotMaximumError(FactorIdError):
    """The supplied matching admits an augmenting path."""


class UntrimmedPatternError(FactorIdError):
    """The operation requires a pattern without all-zero rows or columns."""


class EmptyPatternError(FactorIdError):
    """The operation requires at least one column."""


class TooManyColumnsError(FactorIdError):
    """Brute-force subset enumeration refused above the column cap."""
