"""Exception types shared across the package."""


class DimensionTooLargeError(ValueError):
    """An exhaustive enumeration was requested beyond the supported size."""


class LengthMismatchError(ValueError):
    """Two sequences that must be paired elementwise have different lengths."""


class IoFailure(OSError):
    """Reading or writing a results file failed."""
