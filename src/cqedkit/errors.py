"""Exception and warning types shared across the toolkit.

Domain violations map to CLI exit code 1, numerical failures
(non-convergence, bad brackets, unlabelable dressed states) to exit code 2.
"""


class DomainError(ValueError):
    """An input is outside the physical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to converge."""


class BracketingError(RuntimeError):
    """Root-finding bracket does not straddle the target."""


class LabelingError(RuntimeError):
    """Dressed states cannot be unambiguously assigned to bare states."""


class ExtractionError(RuntimeError):
    """A feature (notch, linewidth) cannot be extracted from a sampled curve."""


class ConvergenceWarning(UserWarning):
    """Result changed more than tolerated when the basis was enlarged."""


class DispersiveValidityWarning(UserWarning):
    """Detuning is too small for the dispersive approximation to be trusted."""


class NarrowSpanWarning(UserWarning):
    """Requested frequency span may not resolve the resonance dip."""
