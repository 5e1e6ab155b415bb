"""Exception hierarchy shared across the package.

``ConfigError`` maps to CLI exit code 2.  ``NumericalError``, and the builtin
``OverflowError``, ``ValueError`` and ``ZeroDivisionError`` that numerical
routines raise, map to exit code 3.
"""


class StarkProbeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(StarkProbeError):
    """A run configuration failed validation."""


class NumericalError(StarkProbeError):
    """A numerical routine left its domain of validity."""


class ExceptionalPointProximity(NumericalError):
    """Eigenvector basis too ill-conditioned to trust (defective or nearly so)."""


class PositivityLoss(NumericalError):
    """A propagated density matrix developed a significantly negative eigenvalue."""


class NormCollapse(NumericalError):
    """A trajectory state lost essentially all of its norm within one step."""


class TraceCollapse(NumericalError):
    """A conjugated density matrix lost essentially all of its trace."""


class PeakAtBoundary(StarkProbeError):
    """The sampled grid does not contain an interior maximum."""


class InsufficientPoints(StarkProbeError):
    """Too few samples inside the fit window."""


class NonPositiveData(StarkProbeError):
    """Log-log fitting requires strictly positive data."""
