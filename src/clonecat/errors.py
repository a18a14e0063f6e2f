"""Exception types shared across the package.

Data-shaped failures (bad files, bad rows, unknown ids) are distinct from
numeric failures (NaN during optimization) so the CLI can map them to
different exit codes.
"""


class CloneCatError(Exception):
    """Base class for all package errors."""


class DataError(CloneCatError):
    """Malformed or unusable input data."""


class LexError(DataError):
    """Source text cannot be lexed.

    Carries the first offending position (1-based line/column) and, when
    known, the file it is in.
    """

    def __init__(self, line: int, column: int, reason: str, path=None):
        self.line = line
        self.column = column
        self.reason = reason
        self.path = path
        where = f"{path}:" if path is not None else ""
        super().__init__(f"{where}{line}:{column}: {reason}")

    def __reduce__(self):  # pickle rebuilds through __init__, not from the message
        return type(self), (self.line, self.column, self.reason, self.path), self.__dict__


class EmptyCorpus(DataError):
    """An embedding corpus with no tokens."""


class FormatError(DataError):
    """A serialized model file has a bad magic, shape, or is truncated."""


class MissingFunction(DataError):
    """A pair names a method id that the corpus does not hold."""


class BadRow(DataError):
    """A pairs CSV row that cannot be parsed; carries its line number."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"row {line_number}: {reason}")

    def __reduce__(self):
        return type(self), (self.line_number, self.reason), self.__dict__


class TooFewPairs(DataError):
    """Fewer pairs than folds requested."""


class DegenerateBatch(CloneCatError):
    """A contrastive batch in which no anchor has a positive."""


class ShapeMismatch(CloneCatError):
    """Parameter and gradient shapes disagree."""


class NumericFailure(CloneCatError):
    """NaN or infinity encountered where finite values are required."""
