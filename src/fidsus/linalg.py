"""Dense Hermitian linear algebra, and the checked real SVD of a one-body matrix.

`eig_hermitian` takes the `HermitianOperator` that `validate_hermitian`
builds and returns two read-only arrays, ``(eigenvalues, basis)``, from
LAPACK's symmetric or Hermitian solver through ``np.linalg.eigh``,
normalized (nondecreasing eigenvalues, pinned eigenvector phases) and
checked (residual and unitarity), so downstream spectral sums can trust
them without re-validating.  Both take a stack ``(..., n, n)`` as one
call, each member checked against its own scale and decomposed bit for
bit as alone; an error names the first failing member.  Every matrix is
decomposed whole; symmetry sectors are a family's blocks and the two
sectors of a block, declared by the model builders or found (see
`gibbs.block_family`).  A matrix with no imaginary part is stored and
decomposed as float64, so real models run LAPACK's real symmetric
solver and real arithmetic throughout; complex input stays complex128.
`svd_checked` is LAPACK's real SVD through ``np.linalg.svd``, with the
same residual check.
"""

from dataclasses import dataclass
from typing import Callable

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
    """A validated Hermitian matrix, or a stack of them, the argument of
    `eig_hermitian`: ``matrix`` has shape ``(..., dim, dim)``, is
    symmetrized and read-only, float64 when it has no nonzero imaginary
    entry and complex128 otherwise.  ``dim`` is the side of each member,
    which the bench's tracer reads from each solve's argument."""

    matrix: np.ndarray
    dim: int


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _norms(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, by a flat reduction:
    ``np.linalg.norm`` over two axes takes 2-3x as long on one matrix."""
    flat = a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])
    return np.sqrt(np.vecdot(flat, flat).real)


def _require(ok: np.ndarray, error: type, message: Callable[[tuple], str]) -> None:
    """Raise ``error(message(k))`` unless every member is ``ok`` (a NaN
    compares false), k the index of the first failing member, which a
    stack's message names.  One value is read by bool(), not a reduction."""
    if not (ok.all() if ok.ndim else ok):
        k = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
        at = f"member {k[0] if len(k) == 1 else k}: " if k else ""
        raise error(at + message(k))


def validate_hermitian(matrix) -> HermitianOperator:
    """Check and wrap a square real or complex matrix M, or a stack of them
    of shape ``(..., n, n)``, as a Hermitian operator holding (M + M^H)/2.

    Boolean, integer and real input is stored as float64 without a
    complex copy, and so is complex input whose symmetrized imaginary part
    is exactly zero; any nonzero imaginary entry keeps complex128.
    Raises `NotSquareError` for anything but square matrices,
    `NonFiniteError` for a NaN or infinite entry, and `NotHermitianError`
    when ||M - M^H||_F exceeds ``HERMITIAN_REL`` max(1, ||M||_F), each
    member of a stack checked against its own norm.
    """
    m = np.asarray(matrix)
    m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    _require(finite, NonFiniteError, lambda k: "matrix contains NaN or Inf entries")
    mh = m.conj().mT if np.iscomplexobj(m) else m.mT
    scale, asym = np.maximum(1.0, _norms(m)), _norms(m - mh)
    _require(asym <= HERMITIAN_REL * scale, NotHermitianError, lambda k: (
        f"asymmetry {asym[k]:.3e} exceeds {HERMITIAN_REL:.1e} * {scale[k]:.3e}"))
    sym = 0.5 * (m + mh)
    if np.iscomplexobj(sym) and not sym.imag.any():
        sym = np.ascontiguousarray(sym.real)
    return HermitianOperator(matrix=_freeze(sym), dim=sym.shape[-1])


def _pin_phases(basis: np.ndarray) -> None:
    """Make each column's first largest-magnitude component real positive,
    in every member of a stack (an empty basis has none)."""
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
    rows = (mag == mag.max(axis=-2, keepdims=True)).argmax(axis=-2)
    # one matrix's plain gather takes a third of the time of a stack's
    if basis.ndim == 2:
        pivots = basis[rows, np.arange(basis.shape[1])]
    else:
        pivots = np.take_along_axis(basis, rows[..., None, :], -2)
    basis *= pivots.conjugate() / np.hypot(pivots.real, pivots.imag)


def eig_hermitian(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian operator into read-only arrays
    ``(eigenvalues, basis)``, the eigenvectors in the basis's columns; a
    stack gives stacks, ``(..., n)`` and ``(..., n, n)``, from one
    ``np.linalg.eigh`` call, each member as it would come alone.

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
        If LAPACK does not converge, or a member fails its own residual
        (``EIG_RESIDUAL``) or unitarity (``BASIS_UNITARITY``) check.
    """
    m = op.matrix
    n = op.dim
    try:
        evals, basis = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc
    # LAPACK returns the eigenvalues ascending, so the sort and its copy of
    # the basis are almost never needed; a NaN fails the comparison, takes
    # the sort and then fails the residual check.  A stack is sorted whole:
    # the stable sort leaves its sorted members as they are
    if not (evals[..., 1:] >= evals[..., :-1]).all():
        order = np.argsort(evals, axis=-1, kind="stable")
        evals = np.take_along_axis(evals, order, -1)
        basis = np.take_along_axis(basis, order[..., None, :], -1)
    _pin_phases(basis)
    resid = _norms(m @ basis - basis * evals[..., None, :])
    unit = _norms(basis.conj().mT @ basis - np.eye(n))
    scale = np.maximum(1.0, _norms(m))
    _require(resid <= EIG_RESIDUAL * scale, NoConvergenceError,
             lambda k: f"eigendecomposition residual {resid[k]:.3e} too large")
    _require(unit <= BASIS_UNITARITY * n, NoConvergenceError,
             lambda k: f"eigenbasis unitarity defect {unit[k]:.3e} too large")
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
