"""Dense Hermitian linear algebra.

The eigensolver is LAPACK's Hermitian driver through ``np.linalg.eigh``.
Its output is normalized (nondecreasing eigenvalues, pinned eigenvector
phases) and checked (residual and unitarity) before it is returned, so
downstream spectral sums can trust the decomposition without
re-validating.  Singular values come from one-sided Jacobi rotations,
which keep the relative accuracy of tiny values.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NotSquareError,
)

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "validate_hermitian",
    "eig_hermitian",
]


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A validated Hermitian matrix.

    Attributes
    ----------
    matrix : ndarray
        Complex128 square array, symmetrized and marked read-only.
    dim : int
        Matrix dimension.
    """

    matrix: np.ndarray
    dim: int


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues and eigenbasis of a Hermitian operator.

    Attributes
    ----------
    eigenvalues : ndarray
        Real eigenvalues in nondecreasing order.
    basis : ndarray
        Unitary matrix whose columns are the eigenvectors, in the same
        order.  Each column's largest-magnitude component is real and
        positive.
    dim : int
        Dimension of the decomposed operator.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    dim: int


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def validate_hermitian(matrix, tols: Tolerances = DEFAULT_TOLS) -> HermitianOperator:
    """Check and wrap a matrix as a Hermitian operator.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix.
    tols : Tolerances, optional
        Tolerance record; ``hermitian_rel`` bounds the allowed asymmetry
        relative to ``max(1, ||M||_F)``.

    Returns
    -------
    HermitianOperator
        Wrapper around the symmetrized matrix ``(M + M^H)/2``.

    Raises
    ------
    NotSquareError
        If the input is not a square 2-d array.
    NonFiniteError
        If any entry is NaN or infinite.
    NotHermitianError
        If the asymmetry exceeds tolerance.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    scale = max(1.0, float(np.linalg.norm(m)))
    asym = float(np.linalg.norm(m - m.conj().T))
    if asym > tols.hermitian_rel * scale:
        raise NotHermitianError(
            f"asymmetry {asym:.3e} exceeds {tols.hermitian_rel:.1e} * {scale:.3e}"
        )
    sym = 0.5 * (m + m.conj().T)
    return HermitianOperator(matrix=_freeze(sym), dim=sym.shape[0])


def eig_hermitian(op: HermitianOperator, tols: Tolerances = DEFAULT_TOLS) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator.

    Eigenvalues are sorted nondecreasing with ties broken by the order
    ``np.linalg.eigh`` returns them in (stable sort), and each
    eigenvector's phase is fixed by making its first largest-magnitude
    component real positive.  Inside a degenerate eigenspace the basis is
    whichever one LAPACK picks.  Every reported sum is invariant under
    that choice except the split of chi_F into its diagonal and
    off-diagonal parts, which is taken in this basis.

    Raises
    ------
    NoConvergenceError
        If LAPACK does not converge, or the decomposition fails its own
        residual (``tols.eig_residual``) or unitarity
        (``tols.basis_unitarity``) check.
    """
    try:
        evals, basis = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    basis = basis[:, order]
    # each column's pivot is its first largest-magnitude component, nonzero
    # in a unit vector; np.hypot divides by the libm magnitude, which the
    # SIMD np.abs of a complex array may miss in the last bit
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(op.dim)]
    basis *= pivots.conjugate() / np.hypot(pivots.real, pivots.imag)
    resid = float(np.linalg.norm(op.matrix @ basis - basis * evals))
    scale = max(1.0, float(np.linalg.norm(op.matrix)))
    if not resid <= tols.eig_residual * scale:
        raise NoConvergenceError(f"eigendecomposition residual {resid:.3e} too large")
    unit = float(np.linalg.norm(basis.conj().T @ basis - np.eye(op.dim)))
    if not unit <= tols.basis_unitarity * op.dim:
        raise NoConvergenceError(f"eigenbasis unitarity defect {unit:.3e} too large")
    return SpectralDecomposition(
        eigenvalues=_freeze(evals), basis=_freeze(basis), dim=op.dim
    )


def singular_values_onesided(b: np.ndarray) -> np.ndarray:
    """Singular values of a square complex matrix, descending.

    One-sided rotations orthogonalize the columns in place, so each
    singular value is read off as a plain column norm at the end.  Tiny
    singular values then inherit the relative accuracy of the matrix
    entries instead of the absolute accuracy of a formed Gram matrix,
    which matters when the values span hundreds of orders of magnitude
    and feed a square root (the fidelity finite difference does exactly
    that).
    """
    a = np.array(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains non-finite entries")
    n = a.shape[0]
    if n < 2:
        return np.linalg.norm(a, axis=0)
    tol = 1e-14
    for _ in range(60):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                u = a[:, p].copy()
                v = a[:, q].copy()
                app = float(np.vdot(u, u).real)
                aqq = float(np.vdot(v, v).real)
                apq = complex(np.vdot(u, v))
                mag = abs(apq)
                if app == 0.0 or aqq == 0.0 or mag <= tol * math.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * mag)
                sgn = 1.0 if tau >= 0.0 else -1.0
                t = sgn / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                w = apq / mag
                wc = w.conjugate()
                a[:, p] = c * u - (s * wc) * v
                a[:, q] = s * u + (c * wc) * v
        if not rotated:
            break
    else:
        raise NoConvergenceError("one-sided rotations did not orthogonalize columns")
    # scaled column norms: a plain sum of squares would underflow first
    # for columns below sqrt(smallest normal)
    peak = np.max(np.abs(a), axis=0)
    safe = np.where(peak == 0.0, 1.0, peak)
    norms = peak * np.sqrt(np.sum(np.abs(a / safe) ** 2, axis=0))
    return np.sort(norms)[::-1]
