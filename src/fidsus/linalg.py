"""Dense Hermitian linear algebra.

The eigensolver is LAPACK's symmetric or Hermitian solver through
``np.linalg.eigh``.  Its output is normalized (nondecreasing eigenvalues,
pinned eigenvector phases) and checked (residual and unitarity) before it
is returned, so downstream spectral sums can trust the decomposition
without re-validating.  A matrix whose exact zeros split it into blocks
is solved block by block.  A matrix with no imaginary part is stored and
decomposed as float64, so real models run LAPACK's real symmetric solver
and real arithmetic throughout; complex input stays complex128.
"""

import math
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
        Square array, symmetrized and marked read-only: float64 when the
        symmetrized matrix has no nonzero imaginary entry, complex128
        otherwise.
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
        order, with the dtype of the decomposed matrix (a real
        orthogonal matrix for a float64 operator).  Each column's
        largest-magnitude component is real and positive.
    dim : int
        Dimension of the decomposed operator.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    dim: int


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def validate_hermitian(matrix) -> HermitianOperator:
    """Check and wrap a matrix as a Hermitian operator.

    Parameters
    ----------
    matrix : array_like
        Square real or complex matrix.  ``HERMITIAN_REL`` bounds its
        allowed asymmetry relative to ``max(1, ||M||_F)``.

    Returns
    -------
    HermitianOperator
        Wrapper around the symmetrized matrix ``(M + M^H)/2``.  Boolean,
        integer and real input is checked and stored as float64 without
        a complex copy; complex input whose symmetrized imaginary part is
        exactly zero is stored as its float64 real part.  Any nonzero
        imaginary entry, however small, keeps complex128.

    Raises
    ------
    NotSquareError
        If the input is not a square 2-d array.
    NonFiniteError
        If any entry is NaN or infinite.
    NotHermitianError
        If the asymmetry exceeds tolerance.
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


def _bfs_levels(linked: np.ndarray, seed: int, seen: np.ndarray):
    """Yield the breadth-first levels of ``seed``'s component, marking them seen.

    ``linked`` is a symmetric boolean pattern; each level is an index
    array, the first one ``[seed]``.
    """
    seen[seed] = True
    level = np.array([seed])
    while level.size:
        yield level
        level = np.flatnonzero(linked[level].any(axis=0) & ~seen)
        seen[level] = True


def _components(linked: np.ndarray) -> tuple[list, np.ndarray]:
    """Connected components of a symmetric boolean pattern, two-coloured.

    Each component is a sorted index array; components come in the order
    of their smallest index.  The pattern of a validated operator is
    symmetric, so a breadth-first search along rows finds every link.
    The boolean array is True on the odd breadth-first levels of each
    component, the two-colouring of a bipartite pattern.
    """
    # a row with no off-diagonal entry is a component of its own
    lone = np.count_nonzero(linked, axis=1) <= linked.diagonal()
    seen = lone.copy()
    odd = np.zeros(linked.shape[0], dtype=bool)
    comps = []
    for seed in range(linked.shape[0]):
        if lone[seed]:
            comps.append(np.array([seed]))
        elif not seen[seed]:
            levels = list(_bfs_levels(linked, seed, seen))
            for level in levels[1::2]:
                odd[level] = True
            comps.append(np.sort(np.concatenate(levels)))
    return comps, odd


def _eigh(m: np.ndarray):
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc


def _pin_phases(basis: np.ndarray) -> None:
    """Make each column's first largest-magnitude component real positive."""
    # the pivot is nonzero in a unit vector; np.hypot divides by the libm
    # magnitude, which the SIMD np.abs of a complex array may miss in the
    # last bit (for a real basis the factor is the exact sign of the pivot)
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    basis *= pivots.conjugate() / np.hypot(pivots.real, pivots.imag)


def _defects(m: np.ndarray, evals: np.ndarray, basis: np.ndarray):
    """Frobenius norms of the residual and of the unitarity defect."""
    resid = float(np.linalg.norm(m @ basis - basis * evals))
    unit = float(np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1])))
    return resid, unit


def eig_hermitian(op: HermitianOperator) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator.

    Eigenvalues are sorted nondecreasing with ties broken by the order
    ``np.linalg.eigh`` returns them in (stable sort), and each
    eigenvector's phase is fixed by making its first largest-magnitude
    component real positive.  ``np.linalg.eigh`` dispatches on the dtype
    of ``op.matrix``: a float64 operator runs the real symmetric solver
    and gets a real orthogonal basis, whose phase pin is a sign.  Inside
    a degenerate eigenspace the basis is whichever one LAPACK picks, and
    the real and complex solvers pick differently; every reported
    quantity is invariant under that choice.

    A matrix whose exact zeros split it into blocks (the connected
    components of its nonzero pattern) is solved block by block:
    ``np.linalg.eigh`` runs once per distinct block, and a block
    bit-identical to an earlier one reuses that solution.  The block
    spectra are concatenated in the order of each block's first index and
    merged by the same stable sort, and each block's vectors are placed in
    the dense basis, exactly zero off the block.  The residual and the
    unitarity defect are the same Frobenius norms over the whole matrix,
    summed block by block, as every cross-block entry is an exact zero.
    A dense matrix, or one whose pattern is connected, goes through one
    ``eigh`` of the whole.

    Raises
    ------
    NoConvergenceError
        If LAPACK does not converge, or the decomposition fails its own
        residual (``EIG_RESIDUAL``) or unitarity (``BASIS_UNITARITY``)
        check.
    """
    m = op.matrix
    n = op.dim
    comps = [] if np.count_nonzero(m) == n * n else _components(m != 0)[0]
    if len(comps) <= 1:
        evals, basis = _eigh(m)
        order = np.argsort(evals, kind="stable")
        evals = evals[order]
        basis = basis[:, order]
        _pin_phases(basis)
        resid, unit = _defects(m, evals, basis)
    else:
        solved = {}  # block bytes -> (evals, pinned vectors, resid, unit)
        placed = []
        resid2 = unit2 = 0.0
        for idx in comps:
            sub = m[idx[:, None], idx]
            key = sub.tobytes()
            if key not in solved:
                w, v = _eigh(sub)
                _pin_phases(v)
                solved[key] = (w, v, *_defects(sub, w, v))
            w, v, r, u = solved[key]
            resid2 += r * r
            unit2 += u * u
            placed.append((idx, w, v))
        evals = np.concatenate([w for _, w, _ in placed])
        order = np.argsort(evals, kind="stable")
        evals = evals[order]
        column = np.empty(n, dtype=np.intp)
        column[order] = np.arange(n)
        basis = np.zeros_like(m)
        start = 0
        for idx, _, v in placed:
            basis[idx[:, None], column[start : start + idx.size]] = v
            start += idx.size
        resid, unit = math.sqrt(resid2), math.sqrt(unit2)
    scale = max(1.0, float(np.linalg.norm(m)))
    if not resid <= EIG_RESIDUAL * scale:
        raise NoConvergenceError(f"eigendecomposition residual {resid:.3e} too large")
    if not unit <= BASIS_UNITARITY * n:
        raise NoConvergenceError(f"eigenbasis unitarity defect {unit:.3e} too large")
    return SpectralDecomposition(
        eigenvalues=_freeze(evals), basis=_freeze(basis), dim=n
    )
