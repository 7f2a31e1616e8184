"""Shared exception and warning types."""


class SegdictError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(SegdictError, ValueError):
    """Array shapes are inconsistent with each other or with a segment spec."""


class SegmentIndexError(SegdictError, IndexError):
    """Segment index outside [1, J]."""


class DictionaryStackError(SegdictError, ValueError):
    """Dictionaries cannot be stacked: mismatched k or bad segment indices."""


class ParseError(SegdictError, ValueError):
    """Malformed dataset or artifact file; message carries the row number."""


class EmptyDatasetError(SegdictError, ValueError):
    """Dataset file contains no data rows."""


class MixedChannelError(SegdictError, ValueError):
    """Records mix different channel counts."""


class SingularActiveSetError(SegdictError, RuntimeError):
    """Active-set gram matrix is numerically singular."""


class InsufficientDataError(SegdictError, ValueError):
    """Not enough (distinct) samples for the requested operation."""


class SingleClassError(SegdictError, ValueError):
    """Binary training data contains only one class."""


class LengthMismatchError(SegdictError, ValueError):
    """Paired sequences have different lengths."""


class EmptySampleError(SegdictError, ValueError):
    """Statistical test received an empty sample."""


class ConfigError(SegdictError, ValueError):
    """Bad run configuration (unknown key or out-of-range value)."""


class FlatBeatWarning(UserWarning):
    """A constant beat was normalized to the zero vector."""


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped before meeting its tolerance."""
