"""Exception types shared across the package."""


class QDetNoiseError(Exception):
    """Base class for all errors raised by qdetnoise."""


class GridMismatchError(QDetNoiseError, ValueError):
    """Grids disagree, or an operation needing f(-omega) got an asymmetric grid.

    It is also a ValueError: a mismatched grid is a bad argument.
    """


class StabilityError(QDetNoiseError):
    """The network drift matrix has an eigenvalue with non-negative real part."""


class SingularNormalizationError(QDetNoiseError):
    """Attempted to normalize by a response that vanishes somewhere on the grid."""


class NotAValidDetectorError(QDetNoiseError):
    """Readout back-acts on itself or on the probe (nonzero reverse response)."""


class DegenerateReadoutError(QDetNoiseError):
    """The readout carries no usable signal.

    Either the chosen quadrature has no gain at zero frequency, or the
    sideband record of an occupied oscillator has no positive red weight.
    """


class OpticalSpringInstabilityError(QDetNoiseError):
    """Back-action modification of the mechanics has no stable steady state."""


class InvalidMatrixError(QDetNoiseError):
    """A MIMO spectral matrix is misshapen, non-finite, non-Hermitian or indefinite."""
