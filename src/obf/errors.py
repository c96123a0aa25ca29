"""Exception types shared across the toolkit."""


class ObfError(Exception):
    """Base class for all toolkit errors."""


class DegenerateData(ObfError):
    """Data makes a required posterior quantity non-positive.

    Typical cause: a constant feature under an improper prior, where the
    updated scale collapses to zero.
    """


class EmptyClass(ObfError):
    """A class label has zero observations."""


class ImproperPrior(ObfError):
    """Operation requires proper (or consistently improper) prior blocks."""


class BadSize(ObfError):
    """Requested selection size exceeds the number of features."""


class TooLarge(ObfError):
    """Feature count exceeds the exhaustive-enumeration guard."""


class NotPD(ObfError):
    """Covariance matrix is not positive definite."""


class ConfigInvalid(ObfError):
    """Configuration violates a documented invariant."""


class DatasetParseError(ObfError):
    """Dataset file is malformed; carries row/column position when known."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column

    def __str__(self):
        loc = []
        if self.row is not None:
            loc.append(f"row {self.row}")
        if self.column is not None:
            loc.append(f"column {self.column}")
        if loc:
            return f"{super().__str__()} ({', '.join(loc)})"
        return super().__str__()


class OutputError(ObfError):
    """An output path cannot be written."""


class AllDegenerate(ObfError):
    """Every feature in the dataset was degenerate under the prior."""
