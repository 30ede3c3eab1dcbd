"""Exception types shared across the package."""


class GoaError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeError(GoaError):
    """A prime modulus was required but a composite number was given."""


class NotPrimitiveError(GoaError):
    """The polynomial does not generate the full multiplicative group."""


class NotPrimePowerError(GoaError):
    """The level count is not a prime power."""


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
    """The randomized search ran out of restarts without success."""


class NoGroupingError(GoaError):
    """The algorithm could not find more than one disjoint group."""


class ShapeMismatchError(GoaError):
    """Input design does not have the shape this transform expects."""


class WrongLevelCountError(GoaError):
    """The operation is defined for a different number of levels."""


class SingularModelMatrixError(GoaError):
    """The model matrix is rank deficient; least squares is not unique."""


class FileFormatError(GoaError):
    """A design file could not be parsed."""
