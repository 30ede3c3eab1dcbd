"""Exception types shared across the package."""


class GoaError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeError(GoaError):
    """The level labels do not form a field."""


class NotPrimitiveError(GoaError):
    """The polynomial does not generate the full multiplicative group."""


class NotPrimePowerError(GoaError):
    """The level count is not a prime power."""


class LevelLimitError(GoaError, ValueError):
    """The level count is above the desk-scale bound of a level field."""


class ParameterRangeError(GoaError, ValueError):
    """A numeric parameter, or the size of the array it asks for, lies
    outside the range the operation accepts."""


class FormatMismatchError(GoaError):
    """A seed generator column is no point of PG(k-1, s)."""


class RankDeficientError(GoaError):
    """A generator matrix does not have full row rank."""


class TooFewColumnsError(GoaError):
    """The design has too few columns for the requested measure."""


class EmptySelectionError(GoaError):
    """A column selection is empty."""


class WrongDegreeError(GoaError):
    """The extension field has the wrong degree for this construction."""


class LevelMismatchError(GoaError):
    """Operands have different level counts."""


class DegenerateSizeError(GoaError):
    """Size parameters are too small for the bound to make sense."""


class BadBlockSizeError(GoaError):
    """A column block has a size other than one or two."""


class StrengthPrereqError(GoaError):
    """An input design does not meet the strength a construction requires."""


class UnsupportedShapeError(GoaError):
    """No catalogued difference scheme of the requested shape."""


class TooFewGroupsError(GoaError):
    """The requested group size does not leave room for a single group."""


class SearchExhaustedError(GoaError):
    """No difference scheme of the shape exists; the exhaustive search proved it."""


class NoGroupingError(GoaError):
    """The best grouping found has fewer groups than --min-groups asks for."""


class ShapeMismatchError(GoaError):
    """Input design does not have the shape this transform expects."""


class WrongLevelCountError(GoaError):
    """The operation is defined for a different number of levels."""


class SingularModelMatrixError(GoaError):
    """The model matrix is rank deficient; least squares is not unique."""


class FileFormatError(GoaError):
    """A design file could not be parsed."""
