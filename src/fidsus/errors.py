"""Exception types raised by the library, and the agreement rule of its
two-route cross-checks."""

import math


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


def check_agreement(check, primary, second, tol, routes):
    """Raise ``CrossCheckError(check, ...)`` unless two routes to one value agree.

    The routes agree when ``primary`` is finite and
    ``|primary - second| <= tol * max(1, |primary|)``, so a NaN on either
    side fails.  ``routes`` names the two values in the message, which
    prints both as plain floats.
    """
    primary, second = float(primary), float(second)
    if not (math.isfinite(primary) and abs(primary - second) <= tol * max(1.0, abs(primary))):
        raise CrossCheckError(
            check,
            f"{routes[0]} {primary!r} and {routes[1]} {second!r} disagree "
            f"beyond {tol:g} relative",
        )


class DimensionBudgetError(ValueError):
    """A block, or a matrix a builder would form, exceeds DIMENSION_BUDGET."""


class SectorDeclarationError(ValueError):
    """A block's declared sectors are not what T and S do: T links two
    sectors, S links a sector to itself, or the mask has the wrong shape."""


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


class RowLengthError(ValueError):
    """CSV data row has a different number of cells than the header."""


class EmptyDataError(ValueError):
    """CSV contains no data rows."""


class CutoffConvergenceWarning(UserWarning):
    """Boson cutoff convergence probe saw a significant shift."""
