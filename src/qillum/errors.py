"""Exception types raised across the package."""


class QillumError(Exception):
    """Base class for package-specific failures."""


class NumericalInstabilityError(QillumError):
    """A probability landed outside [0, 1] by more than the trusted excursion."""


class DegenerateHeraldingError(QillumError):
    """Heralding normalization vanished (e.g. zero-efficiency idler with k >= 1 clicks)."""


class TruncationError(QillumError):
    """A truncated Fock vector lost more trace than the comparison tolerates."""
