"""Exception types raised by the library."""


class NotSquareError(ValueError):
    """Matrix input is not square."""


class NotHermitianError(ValueError):
    """Matrix asymmetry exceeds the Hermitian tolerance."""


class NonFiniteError(ValueError):
    """Input or computed values contain NaN or infinity."""


class NoConvergenceError(RuntimeError):
    """A factorization did not converge or failed its own accuracy check."""


class NotDensityMatrixError(ValueError):
    """Input is not Hermitian, unit-trace, and positive semidefinite."""


class NonPositiveBetaError(ValueError):
    """Inverse temperature must be positive and finite."""


class DimensionMismatchError(ValueError):
    """Operator dimensions do not agree."""


class TauOutOfRangeError(ValueError):
    """Imaginary time argument lies outside [0, beta]."""


class DegenerateGroundStateError(ValueError):
    """Ground state is degenerate within the gap tolerance."""


class StepTooSmallError(ValueError):
    """Finite-difference step lost all signal to cancellation."""


class CrossCheckError(RuntimeError):
    """Two internal evaluation routes disagree beyond tolerance.

    The ``check`` attribute names the failed consistency check.
    """

    def __init__(self, check, message):
        super().__init__(message)
        self.check = check


class InternalFormMismatchError(CrossCheckError):
    """Kernel and direct spectral forms of chi_F disagree."""

    def __init__(self, message):
        super().__init__("chi_f_forms", message)


class QuadratureDisagreementError(CrossCheckError):
    """Closed-form and quadrature evaluations of the integral disagree."""

    def __init__(self, message):
        super().__init__("chi_fg_quadrature", message)


class DimensionBudgetError(ValueError):
    """Requested Hilbert space exceeds the dense-solver budget."""


class NoTransitionError(ValueError):
    """Model parameters admit no finite-temperature transition."""


class ModelFileError(ValueError):
    """Base class for matrix-file loading failures."""


class ModelParseError(ModelFileError):
    """Matrix file is not a single well-formed object."""


class ModelSchemaError(ModelFileError):
    """Matrix file parsed but violates the schema."""


class MissingColumnError(ValueError):
    """Requested CSV column is absent."""


class EmptyDataError(ValueError):
    """CSV contains no data rows."""


class CutoffConvergenceWarning(UserWarning):
    """Boson cutoff convergence probe saw a significant shift."""
