"""Exception types raised across the package.

Every error that callers are expected to handle derives from PgbmError,
so a bare ``except PgbmError`` at an application boundary catches all of
them while programming mistakes (TypeError and friends) still surface.
"""

from __future__ import annotations


class PgbmError(Exception):
    """Base class for all errors raised by this package."""


class MissingColumn(PgbmError):
    """A named column is not present in the file header."""


class DuplicateColumn(PgbmError):
    """A column name that a command needs is given to more than one column."""


class ParseError(PgbmError):
    """A cell or line could not be parsed.

    ``row`` and ``col`` are zero-based; for line-oriented formats ``row``
    is the line number and ``col`` is 0.
    """

    def __init__(self, row: int, col: int, message: str = ""):
        self.row = row
        self.col = col
        detail = message or "unparseable value"
        super().__init__(f"{detail} at row {row}, column {col}")


class NonFiniteValue(PgbmError):
    """A cell parsed to NaN or infinity."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value at row {row}, column {col}")


class EmptyDataset(PgbmError):
    """No data rows, or no feature columns."""


class FeatureCountMismatch(PgbmError):
    """Feature count differs from what the edges or model expect."""


class FeatureNameMismatch(PgbmError):
    """A feature's name differs from the model's or training set's name
    at the same position."""


class LengthMismatch(PgbmError):
    """Two vectors that must be aligned have different lengths."""


class IndexOutOfRange(PgbmError):
    """A group refers to a sample index outside the data."""


class NonFiniteLoss(PgbmError):
    """A loss evaluation produced NaN or infinity."""


class DegenerateHessian(PgbmError):
    """A leaf's mean hessian plus scaled regularization is not positive."""


class EmptyMask(PgbmError):
    """A sample index set that must be nonempty is empty."""


class NonFiniteEstimate(PgbmError):
    """A split gain, leaf moment or point estimate overflows float64 in
    training, or the predicted moments do."""


class TrainingDiverged(PgbmError):
    """The training objective rose far above that of the constant model."""


class InfeasibleMoments(PgbmError):
    """The requested family cannot represent the given mean and variance."""

    def __init__(self, family: str, mu: float, var: float):
        self.family = family
        self.mu = mu
        self.var = var
        super().__init__(f"{family} cannot match mu={mu!r}, var={var!r}")


class VersionMismatch(PgbmError):
    """The model file declares an unsupported format version."""


class CorruptModel(PgbmError):
    """The model file is structurally invalid.

    ``line`` is the one-based line number of the offending content.
    """

    def __init__(self, line: int, message: str = ""):
        self.line = line
        detail = message or "corrupt model file"
        super().__init__(f"{detail} (line {line})")


class EmptySamples(PgbmError):
    """An empirical score was requested over zero samples."""


class IoError(PgbmError):
    """Reading or writing a file failed at the operating system level."""
