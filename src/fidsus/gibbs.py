"""The Gibbs family of H(h) = T - h S at h = 0, the one thermal-state type.

Everything downstream of this module works in the eigenbasis of the
unperturbed Hamiltonian T: populations, perturbation matrix elements and
imaginary-time correlations all derive from a single spectral
decomposition.  A `PerturbedFamily` holds that decomposition, S rotated
into it, the exact block partition of that S and whether a sign flip of
the basis reverses it, the chi_N oracle's displaced spectra, and the
Boltzmann weights at one beta.  `make_family` builds one from matrices
and `family_at_beta` moves one to another temperature without
re-diagonalizing, sharing everything but the weights; both take their
weights from `_log_weights`.
Populations are kept in log space so that large inverse temperatures
never overflow.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEGENERATE_GAP, EIGENBASIS_HERMITIAN, THERMAL_AVERAGE_RESIDUE
from .errors import (
    DimensionMismatchError,
    NonPositiveBetaError,
    NotHermitianError,
    TauOutOfRangeError,
)
from .linalg import (
    HermitianOperator,
    SpectralDecomposition,
    _components,
    eig_hermitian,
    validate_hermitian,
)

__all__ = [
    "PerturbedFamily",
    "make_family",
    "family_at_beta",
    "thermal_average",
    "correlation_G",
]


class _PairGrid(NamedTuple):
    gap: np.ndarray
    bgap: np.ndarray
    p_low: np.ndarray
    p_geo: np.ndarray
    deg: np.ndarray
    ratio: np.ndarray
    s_abs2: np.ndarray
    delta_d: np.ndarray
    var_d: float


@dataclass(frozen=True, eq=False)
class PerturbedFamily:
    """The Gibbs state e^{-beta T}/Z of a family H(h) = T - h S at h = 0.

    The perturbation is stored only in the T-eigenbasis (``s_eig``); the
    original basis is discarded after construction because every spectral
    formula downstream is written in eigenbasis matrix elements.

    Attributes
    ----------
    beta : float
        Inverse temperature, strictly positive.
    spectrum : SpectralDecomposition
        Decomposition of T; eigenvalues ascending.
    s_eig : ndarray
        S in the eigenbasis of T, Hermitian.
    sign_odd : bool
        Whether a diagonal sign flip D = diag(+-1) maps ``s_eig`` to
        ``-s_eig`` exactly (see `_partition`).  D then commutes with
        diag(T), so T - h S and T + h S are similar, and <S>_{-h} is
        -<S>_h.
    blocks : tuple of ndarray
        The exact block partition of ``s_eig``: the sorted index arrays
        of the connected components of its nonzero pattern, in the order
        of their smallest index.  One array, 0..dim-1, when the pattern
        is connected.  Every T - h S is block diagonal on it.
    displaced : dict
        The chi_N oracle's solves of T - h S, keyed by the field h: the
        ascending levels and the matching diagonal of S in the displaced
        eigenbasis, never the eigenvectors.  Neither depends on beta, so
        `family_at_beta` hands the same dict on and a beta sweep solves
        each field once.
    log_populations : ndarray
        log p_n, always finite.  All kernel evaluations use these.
    populations : ndarray
        Boltzmann weights p_n, nonnegative and summing to one.  Individual
        entries may underflow to exact zero at extreme beta; see
        ``underflow_count``.
    log_z : float
        log of the partition function.
    s_mean : float
        The thermal mean <S>.
    underflow_count : int
        Number of populations that flushed to zero in ``populations``.
    particle_count : int
        Metadata from the model builder used for per-particle quantities;
        it is never inferred from the dimension.
    """

    beta: float
    spectrum: SpectralDecomposition
    s_eig: np.ndarray = field(repr=False)
    sign_odd: bool
    blocks: tuple = field(repr=False)
    displaced: dict = field(repr=False)
    log_populations: np.ndarray = field(repr=False)
    populations: np.ndarray = field(repr=False)
    log_z: float
    s_mean: float
    underflow_count: int
    particle_count: int

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    @functools.cached_property
    def pair_grid(self) -> _PairGrid:
        """Symmetric pair quantities shared by every spectral sum.

        The absolute gaps |T_m - T_n|, the scaled gaps beta|T_m - T_n|,
        the larger population of each pair, the geometric-mean population
        sqrt(p_m p_n), the degeneracy mask ``beta * gap < DEGENERATE_GAP``
        (diagonal included), the ratio kernel, |S_mn|^2 with its diagonal
        zeroed, the centred diagonal S_mm - <S> and its population
        variance.  The ratio kernel (p_n - p_m)/X_mn, shared by chi_F,
        rho' and the BD product, is evaluated from the lower level as
        p_low (1 - e^{-2X})/X with X = beta|T_m - T_n|/2, and inside the
        degeneracy window as its limit 2 sqrt(p_m p_n).  Built on first
        use and kept with the family, so one report builds it once; its
        arrays are read-only because every sum shares them.
        """
        ev = self.eigenvalues
        lp = self.log_populations
        gap = np.abs(ev[:, None] - ev[None, :])
        bgap = self.beta * gap
        p_low = np.exp(np.maximum(lp[:, None], lp[None, :]))
        p_geo = np.exp(0.5 * (lp[:, None] + lp[None, :]))
        deg = bgap < DEGENERATE_GAP
        x = 0.5 * np.where(deg, 1.0, bgap)
        ratio = np.where(deg, 2.0 * p_geo, p_low * (-np.expm1(-2.0 * x)) / x)
        s_abs2 = np.abs(self.s_eig) ** 2
        np.fill_diagonal(s_abs2, 0.0)
        delta_d = np.real(np.diagonal(self.s_eig)) - self.s_mean
        var_d = float(np.dot(self.populations, delta_d**2))
        for arr in (gap, bgap, p_low, p_geo, deg, ratio, s_abs2, delta_d):
            arr.setflags(write=False)
        return _PairGrid(gap, bgap, p_low, p_geo, deg, ratio, s_abs2, delta_d, var_d)


def _log_weights(eigenvalues: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Log Boltzmann weights and log Z of an ascending spectrum at beta.

    The exponents are taken relative to the lowest level, so each one is
    nonpositive and the log-sum-exp never overflows.
    """
    shifted = -beta * (eigenvalues - eigenvalues[0])
    lse = float(np.logaddexp.reduce(shifted))
    return shifted - lse, lse - beta * float(eigenvalues[0])


def _partition(s_eig: np.ndarray) -> tuple[tuple, bool]:
    """The exact block partition of ``s_eig`` and whether it is sign-odd.

    One breadth-first pass over the exact nonzero pattern finds its
    connected components and two-colours each one by the parity of its
    levels.  ``s_eig`` is sign-odd, D s_eig D = -s_eig for some diagonal
    D = diag(+-1), exactly when its diagonal is zero and no link joins
    two entries of one colour: D is then +1 on the even levels and -1 on
    the odd ones.  A pattern with no zero entry is one block whose
    nonzero diagonal makes it not odd, and skips the search.  An all-zero
    S is odd.
    """
    n = s_eig.shape[0]
    if np.count_nonzero(s_eig) == n * n:
        return (np.arange(n),), False
    linked = s_eig != 0
    blocks, odd = _components(linked)
    sign_odd = not np.diagonal(s_eig).any() and not np.any(
        linked & (odd[:, None] == odd[None, :])
    )
    return tuple(blocks), sign_odd


def _thermalize(
    beta: float,
    spectrum: SpectralDecomposition,
    s_eig: np.ndarray,
    particle_count: int,
    blocks: tuple,
    sign_odd: bool,
    displaced: dict,
) -> PerturbedFamily:
    """The family of a decomposed T and S in its eigenbasis at beta."""
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise NonPositiveBetaError(f"beta must be positive and finite, got {beta!r}")
    lp, log_z = _log_weights(spectrum.eigenvalues, beta)
    lp.setflags(write=False)
    p = np.exp(lp)
    p.setflags(write=False)
    return PerturbedFamily(
        beta=beta,
        spectrum=spectrum,
        s_eig=s_eig,
        sign_odd=sign_odd,
        blocks=blocks,
        displaced=displaced,
        log_populations=lp,
        populations=p,
        log_z=log_z,
        s_mean=float(np.dot(p, np.real(np.diagonal(s_eig)))),
        underflow_count=int(np.count_nonzero(p == 0.0)),
        particle_count=particle_count,
    )


def _require_hermitian(a: np.ndarray, what: str) -> float:
    """max(1, ||A||_F), after checking max |A - A^H| against
    ``EIGENBASIS_HERMITIAN`` times it; a NaN defect fails."""
    scale = max(1.0, float(np.linalg.norm(a)))
    asym = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if not (asym <= EIGENBASIS_HERMITIAN * scale):
        raise NotHermitianError(f"{what}: defect {asym:.3e}")
    return scale


def make_family(
    T: HermitianOperator | np.ndarray,
    S: HermitianOperator | np.ndarray,
    beta: float,
    particle_count: int = 1,
) -> PerturbedFamily:
    """Diagonalize T, rotate S into its eigenbasis and thermalize at beta.

    Parameters
    ----------
    T, S : HermitianOperator or array
        Unperturbed Hamiltonian and perturbation in one basis.
    beta : float
        Inverse temperature, strictly positive and finite.
    particle_count : int
        Number of particles the model builder says S sums over.

    Returns
    -------
    PerturbedFamily
    """
    if not isinstance(T, HermitianOperator):
        T = validate_hermitian(T)
    spectrum = eig_hermitian(T)
    if not isinstance(S, HermitianOperator):
        S = validate_hermitian(S)
    if S.dim != T.dim:
        raise DimensionMismatchError(
            f"perturbation is {S.dim}x{S.dim} but T is {T.dim}x{T.dim}"
        )
    if particle_count < 1:
        raise ValueError(f"particle_count must be >= 1, got {particle_count}")
    b = spectrum.basis
    s_eig = b.conj().T @ S.matrix @ b
    # the rotation is unitary up to BASIS_UNITARITY, so Hermiticity
    # survives to the same order; re-symmetrize to make it exact
    _require_hermitian(s_eig, "perturbation lost Hermiticity in the basis rotation")
    s_eig = 0.5 * (s_eig + s_eig.conj().T)
    s_eig.setflags(write=False)
    return _thermalize(beta, spectrum, s_eig, particle_count, *_partition(s_eig), {})


def family_at_beta(fam: PerturbedFamily, beta: float) -> PerturbedFamily:
    """Rebuild the family at a different temperature without re-diagonalizing.

    The eigenbasis, S_eig, its block partition and sign parity, and the
    chi_N oracle's displaced spectra are temperature independent, and the
    new family shares them (the same ``displaced`` dict, so a field
    solved at one temperature is not solved again at another); only the
    weights, log Z and the perturbation mean change.
    """
    return _thermalize(
        beta, fam.spectrum, fam.s_eig, fam.particle_count, fam.blocks, fam.sign_odd,
        fam.displaced,
    )


def thermal_average(fam: PerturbedFamily, A: np.ndarray) -> float:
    """Average Tr(rho A) for A given in the T-eigenbasis.

    Returns the real part; an imaginary residue above
    ``THERMAL_AVERAGE_RESIDUE`` relative to ``max(1, ||A||_F)`` (which a
    Hermitian A cannot produce beyond rounding of order eps ||A||) is
    reported as a warning.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] != fam.dim:
        raise DimensionMismatchError(
            f"operator is {A.shape[0]}x{A.shape[0]} but the family has dim {fam.dim}"
        )
    scale = _require_hermitian(A, "operator is not Hermitian")
    diag = np.diagonal(A)
    value = float(np.dot(fam.populations, np.real(diag)))
    residue = abs(float(np.dot(fam.populations, np.imag(diag))))
    if residue > THERMAL_AVERAGE_RESIDUE * scale:
        warnings.warn(
            f"thermal average has imaginary residue {residue:.3e}", stacklevel=2
        )
    return value


# correlation_G takes tau nodes in blocks whose (nodes, n, n) temporaries
# hold about this many float64 elements (2 MiB), which bounds its memory
# at any dim and any node count.
_BLOCK_ELEMENTS = 2**18


def correlation_G(fam: PerturbedFamily, tau: float | Sequence[float]) -> float | np.ndarray:
    """Imaginary-time autocorrelation G(tau) of the perturbation.

    G(tau) = sum_{m,n} p_m e^{tau (T_m - T_n)} |S_mn|^2 - <S>^2 for
    0 <= tau <= beta.  The exponent is evaluated as the convex combination
    (1 - tau/beta) log p_m + (tau/beta) log p_n, which is bounded above by
    zero, so the sum never overflows however large beta is.  The diagonal
    part is accumulated in the mean-subtracted form so the tau-independent
    variance comes out without cancellation.  |S_mn|^2, the centred
    diagonal and its variance are read from the family's pair grid.

    ``tau`` is a float, or a 1-d sequence of floats for which an array of
    G values is returned.  The tau-independent terms are formed once, and
    the nodes are evaluated in blocks, each one broadcast over a
    (nodes, n, n) array: a block holds max(1, 2**18 // n**2) nodes, so a
    temporary holds about 2**18 float64 elements (2 MiB), or one n x n
    grid once n > 512, and memory does not grow with the number of
    nodes.  Each value is still one elementwise exp and one pairwise sum
    over its own n x n slice, bit-identical to a scalar call.

    Raises
    ------
    TauOutOfRangeError
        If ``tau`` is not a float or a 1-d sequence of floats, or a value
        lies outside [0, beta].
    """
    beta = fam.beta
    try:
        taus = np.asarray(tau)
        well_formed = taus.ndim <= 1 and taus.dtype.kind in "iuf"
    except ValueError:  # ragged nested sequences
        well_formed = False
    if not well_formed:
        raise TauOutOfRangeError(
            f"tau must be a float or a 1-d sequence of floats in [0, beta={beta!r}], "
            f"got {tau!r}"
        )
    flat = np.atleast_1d(taus).astype(float)
    outside = flat[~((flat >= 0.0) & (flat <= beta))]
    if outside.size:
        raise TauOutOfRangeError(
            f"tau must lie in [0, beta={beta!r}], got {float(outside[0])!r}"
        )
    lam = flat / beta
    lp = fam.log_populations
    g = fam.pair_grid
    values = np.empty(lam.shape)
    step = max(1, _BLOCK_ELEMENTS // fam.dim**2)
    for lo in range(0, lam.size, step):
        block = lam[lo : lo + step, None, None]
        weights = np.exp((1.0 - block) * lp[:, None] + block * lp[None, :])
        weights *= g.s_abs2
        values[lo : lo + step] = np.sum(weights, axis=(1, 2)) + g.var_d
    return float(values[0]) if taus.ndim == 0 else values
