"""Dense Hermitian linear algebra, and the checked real SVD of a one-body matrix.

`eig_hermitian` takes the `HermitianOperator` that `validate_hermitian`
builds and returns two read-only arrays, ``(eigenvalues, basis)``, from
LAPACK's symmetric or Hermitian solver through ``np.linalg.eigh``,
normalized (nondecreasing eigenvalues, pinned eigenvector phases) and
checked (residual and unitarity), so downstream spectral sums can trust
them without re-validating.  Every call is one ``eigh`` of the whole matrix;
symmetry sectors are a family's blocks and the two sectors of a block,
declared by the model builders or found (see `gibbs.block_family`).  A
matrix with no imaginary part is stored and decomposed as float64, so
real models run LAPACK's real symmetric solver and real arithmetic
throughout; complex input stays complex128.  `svd_checked` is LAPACK's
real SVD through ``np.linalg.svd``, with the same residual check.
"""

from dataclasses import dataclass

import numpy as np

from .config import BASIS_UNITARITY, EIG_RESIDUAL, HERMITIAN_REL
from .errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NotSquareError,
)

__all__ = [
    "HermitianOperator",
    "validate_hermitian",
    "eig_hermitian",
    "svd_checked",
]


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A validated Hermitian matrix of dimension ``dim``, the argument of
    `eig_hermitian`: ``matrix`` is symmetrized and read-only, float64 when
    it has no nonzero imaginary entry and complex128 otherwise.  The
    bench's tracer reads ``dim`` from each solve's argument."""

    matrix: np.ndarray
    dim: int


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def validate_hermitian(matrix) -> HermitianOperator:
    """Check and wrap a square real or complex matrix M as a Hermitian
    operator holding (M + M^H)/2.

    Boolean, integer and real input is stored as float64 without a
    complex copy, and so is complex input whose symmetrized imaginary part
    is exactly zero; any nonzero imaginary entry keeps complex128.
    Raises `NotSquareError` for anything but a square 2-d array,
    `NonFiniteError` for a NaN or infinite entry, and `NotHermitianError`
    when ||M - M^H||_F exceeds ``HERMITIAN_REL`` max(1, ||M||_F).
    """
    m = np.asarray(matrix)
    m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    mh = m.conj().T if np.iscomplexobj(m) else m.T
    scale = max(1.0, float(np.linalg.norm(m)))
    asym = float(np.linalg.norm(m - mh))
    if asym > HERMITIAN_REL * scale:
        raise NotHermitianError(
            f"asymmetry {asym:.3e} exceeds {HERMITIAN_REL:.1e} * {scale:.3e}"
        )
    sym = 0.5 * (m + mh)
    if np.iscomplexobj(sym) and not sym.imag.any():
        sym = np.ascontiguousarray(sym.real)
    return HermitianOperator(matrix=_freeze(sym), dim=sym.shape[0])


def _pin_phases(basis: np.ndarray) -> None:
    """Make each column's first largest-magnitude component real positive
    (an empty basis has none)."""
    if not basis.size:
        return
    # the pivot is nonzero in a unit vector; np.hypot divides by the libm
    # magnitude, which the SIMD np.abs of a complex array may miss in the
    # last bit (for a real basis the factor is the exact sign of the pivot).
    # The first maximum of each column is found from the boolean of where
    # |B| meets its column maximum: an argmax down the columns of a
    # row-major array copies it transposed, and the boolean is the
    # smallest array to copy.
    mag = np.abs(basis)
    rows = (mag == mag.max(axis=0)).argmax(axis=0)
    pivots = basis[rows, np.arange(basis.shape[1])]
    basis *= pivots.conjugate() / np.hypot(pivots.real, pivots.imag)


def eig_hermitian(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian operator into read-only arrays
    ``(eigenvalues, basis)``, the eigenvectors in the basis's columns.

    Eigenvalues are sorted nondecreasing with ties broken by the order
    ``np.linalg.eigh`` returns them in (stable sort), and each
    eigenvector's phase is fixed by making its first largest-magnitude
    component real positive.  A float64 operator runs LAPACK's real
    symmetric solver and gets a real orthogonal basis.  Inside a
    degenerate eigenspace the basis is whichever one LAPACK picks; every
    reported quantity is invariant under that choice.

    Raises
    ------
    NoConvergenceError
        If LAPACK does not converge, or the decomposition fails its own
        residual (``EIG_RESIDUAL``) or unitarity (``BASIS_UNITARITY``)
        check.
    """
    m = op.matrix
    n = op.dim
    try:
        evals, basis = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc
    # LAPACK returns the eigenvalues ascending, so the sort and its copy of
    # the basis are almost never needed; a NaN fails the comparison, takes
    # the sort and then fails the residual check
    if not (evals[1:] >= evals[:-1]).all():
        order = np.argsort(evals, kind="stable")
        evals = evals[order]
        basis = basis[:, order]
    _pin_phases(basis)
    resid = float(np.linalg.norm(m @ basis - basis * evals))
    unit = float(np.linalg.norm(basis.conj().T @ basis - np.eye(n)))
    scale = max(1.0, float(np.linalg.norm(m)))
    if not resid <= EIG_RESIDUAL * scale:
        raise NoConvergenceError(f"eigendecomposition residual {resid:.3e} too large")
    if not unit <= BASIS_UNITARITY * n:
        raise NoConvergenceError(f"eigenbasis unitarity defect {unit:.3e} too large")
    return _freeze(evals), _freeze(basis)


def svd_checked(matrix: np.ndarray) -> tuple:
    """Singular value decomposition M = U diag(s) V^T of a real square M.

    Returns ``(u, s, v)`` with V itself, not its transpose, and s
    nonincreasing as LAPACK returns it.  An upper bidiagonal M passes
    LAPACK's bidiagonal reduction unchanged, so even its smallest singular
    values keep high relative accuracy.

    Raises
    ------
    NoConvergenceError
        If LAPACK does not converge, or ||M V - U diag(s)||_F exceeds
        ``EIG_RESIDUAL`` max(1, ||M||_F).
    """
    try:
        u, s, vt = np.linalg.svd(matrix)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"svd did not converge: {exc}") from exc
    v = vt.T
    resid = float(np.linalg.norm(matrix @ v - u * s))
    if not resid <= EIG_RESIDUAL * max(1.0, float(np.linalg.norm(matrix))):
        raise NoConvergenceError(f"svd residual {resid:.3e} too large")
    return u, s, v
