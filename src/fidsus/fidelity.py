"""Fidelity measures and susceptibility variants for Gibbs families.

All spectral sums run over matrix elements in the T-eigenbasis carried by
a :class:`~fidsus.gibbs.PerturbedFamily`, pair by pair inside each of its
symmetry blocks and weighted by the block's copies.  Pair weights are evaluated
from the side of the lower energy level, so every exponential argument is
nonpositive and nothing overflows at any inverse temperature.  Pairs
closer than the degeneracy window get the analytic limit of their kernel,
taken in the symmetric form sqrt(p_m p_n) so Hermiticity survives exactly.
Every pair sum comes from one function, `_pair_sums_over`: one pass per
block for a family alone, the temperatures of a beta chain or a stack of
independent families, the six sums of a block formed together
(`_block_sums`) and kept in each family's memo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import (
    CHI_INTERNAL_REL,
    DEGENERATE_GAP,
    DENSITY_TRACE,
    GROUND_STATE_GAP,
    PSD_CLIP,
    QUADRATURE_AGREEMENT_REL,
)
from .errors import (
    DegenerateGroundStateError,
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NotDensityMatrixError,
    NotHermitianError,
    NotSquareError,
    StepTooSmallError,
    check_agreement,
)
from . import gibbs
from .gibbs import Block, PerturbedFamily, _memoized, _perturbed_spectrum, correlation_G
from .kernels import tanh_over_x
from .linalg import _freeze, eig_hermitian, validate_hermitian

__all__ = [
    "FidelitySusceptibility",
    "uhlmann_fidelity",
    "bures_distance",
    "perturbed_density",
    "rho_prime",
    "chi_f_spectral",
    "chi_f_fd",
    "chi_f_ground_state",
    "chi_fg_spectral",
    "chi_fg_integral",
    "ds2_spectral",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FidelitySusceptibility:
    """Fidelity susceptibility split into its classical and quantum parts.

    The classical part comes from the eigenspace averages of S, the
    quantum part from everything else: the coherences between different
    eigenspaces and the spread of S inside each one.  Both are
    independent of the basis chosen inside a degenerate eigenspace.
    ``total = classical + quantum`` holds by construction; both parts are
    sums of nonnegative terms.  ``degenerate_pair_count`` reports how many
    unordered level pairs fell inside the degeneracy window and were
    evaluated by the limit kernel.
    """

    total: float
    classical: float
    quantum: float
    degenerate_pair_count: int


@functools.cache
def _gauss_legendre_64() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre rule on [-1, 1], read-only and shared.

    Built on first use rather than at import: only the quadrature oracles
    need it, and loading ``numpy.polynomial`` adds about 2 MiB to every
    process that imports the package.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@_memoized
def _half_circle_G(fam: PerturbedFamily) -> tuple[np.ndarray, np.ndarray]:
    """The 64 Gauss-Legendre nodes tau_i on [0, beta/2] and G(tau_i), both
    read-only: one `correlation_G` call per family, which by the symmetry
    G(tau) = G(beta - tau) serves both quadrature oracles."""
    taus = _freeze(0.25 * fam.beta * (_gauss_legendre_64()[0] + 1.0))
    return taus, _freeze(correlation_G(fam, taus))


def _pair_kernels(beta, ev: np.ndarray, lp, rows=slice(None), cols=slice(None)) -> tuple:
    """The pair quantities of the levels ``ev[rows]`` x ``ev[cols]`` of one
    block (all of them by default) with log populations ``lp``: |T_m - T_n|,
    beta times it, the larger population p_low of each pair, sqrt(p_m p_n),
    the mask ``beta * gap < DEGENERATE_GAP`` and the ratio kernel
    (p_n - p_m)/X_mn of chi_F, rho' and the BD product,
    p_low (1 - e^{-2X})/X with X = beta|T_m - T_n|/2, and 2 sqrt(p_m p_n)
    in the window.  ``beta``, ``ev`` and ``lp`` may carry a leading
    family axis, as in `_block_sums`."""
    gap = np.abs(ev[..., rows, None] - ev[..., None, cols])
    bgap = beta * gap
    p_low = np.exp(np.maximum(lp[..., rows, None], lp[..., None, cols]))
    p_geo = np.exp(0.5 * (lp[..., rows, None] + lp[..., None, cols]))
    deg = bgap < DEGENERATE_GAP
    x = 0.5 * np.where(deg, 1.0, bgap)
    ratio = np.where(deg, 2.0 * p_geo, p_low * (-np.expm1(-2.0 * x)) / x)
    return gap, bgap, p_low, p_geo, deg, ratio


def _rho_prime_block(fam: PerturbedFamily, b: Block, ratio: np.ndarray) -> np.ndarray:
    """rho' of one block: S_mn (beta/2) ratio_mn off the diagonal and
    beta p_m (S_mm - <S>) on it."""
    r = b.s_eig * (0.5 * fam.beta * ratio)
    np.fill_diagonal(r, _rho_prime_diagonal(fam.beta, b.populations, b.s_diagonal, fam.s_mean))
    return r


def _rho_prime_diagonal(beta, p, s_diagonal, s_mean):
    """beta p_m (S_mm - <S>), the diagonal of rho' in a block whose
    populations are ``p`` and whose S has the diagonal ``s_diagonal``."""
    return beta * p * (s_diagonal - s_mean)


class _PairSums(NamedTuple):
    """The floats of `_pair_sums`, in the order `_block_sums` yields them."""

    chi_f_direct: float
    chi_f: float
    bd: float
    dcomm: float
    ds2: float
    chi_fg: float


def _block_sums(b: Block, beta, diagonal):
    """The pair sums of block b, one sum at a time: chi_F's direct form
    |rho'_mn|^2 / (2(p_m + p_n)), its diagonal included, then |S_mn|^2 off
    the diagonal times chi_F's ratio tanh(X)/X, the BD product's ratio,
    dcomm's p_low (1 - e^{-2X}) |T_m - T_n| and the kernels of
    `ds2_spectral` and `chi_fg_spectral`.  Each pair array is dropped
    once no later sum reads it.

    ``beta`` is the inverse temperature and ``diagonal`` the diagonal of
    rho' at it (`_rho_prime_diagonal`).  For one family, b is its own
    block, ``beta`` a float and each yield a float.  For B families whose
    blocks match in shape, any array of b may carry a leading family
    axis, ``beta`` is then a (B, 1, 1) array and ``diagonal`` (B, n_b):
    every pair array has the leading axis, every sum runs over the last
    two axes, and each yield is a (B,) array whose entries are the floats
    each family gives alone.

    Every kernel is symmetric in m and n.  So a block with sectors,
    whose S has no entry inside either, sums the rectangle
    between them and counts it twice, plus chi_F's diagonal terms; every
    pair it leaves out is exactly 0.
    """
    s, lp, p = b.s_pairs, b.log_populations, b.populations
    rows, cols = b.sectors or (slice(None), slice(None))
    twice = 1.0 if b.sectors is None else 2.0
    gap, bgap, p_low, p_geo, deg, ratio = _pair_kernels(beta, b.levels, lp, rows, cols)
    den = 2.0 * (p[..., rows, None] + p[..., None, cols])
    r = s * (0.5 * beta * ratio)
    if b.sectors is None:
        on = np.arange(b.levels.shape[-1])
        r[..., on, on] = diagonal
        lone = 0.0
    else:  # rho'_mm / (2 (p_m + p_m)) lies outside the rectangle
        lone = 0.25 * np.vecdot(diagonal, diagonal / np.where(p > 0.0, p, 1.0))
    num = np.abs(r) ** 2
    del r
    pairs = (-2, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0).sum(pairs)
    del den, num
    yield twice * direct + lone
    s_abs2 = np.abs(s) ** 2
    if b.sectors is None:
        s_abs2[..., on, on] = 0.0
    yield twice * (ratio * tanh_over_x(0.5 * bgap) * s_abs2).sum(pairs)
    yield twice * (ratio * s_abs2).sum(pairs)
    del ratio
    q = -np.expm1(-bgap)
    yield twice * (p_low * q * gap * s_abs2).sum(pairs)
    gap2 = np.where(deg, 1.0, gap)
    del gap
    gap2 *= gap2
    w = np.where(deg, 0.5 * beta * beta * p_geo, p_low * q * q / (gap2 * (2.0 - q)))
    del q
    yield twice * (w * s_abs2).sum(pairs)
    e = np.expm1(-0.5 * bgap)
    w = np.where(deg, 0.25 * beta * beta * p_geo, p_low * e * e / gap2)
    yield twice * (w * s_abs2).sum(pairs)


def _pair_sums(fam: PerturbedFamily) -> _PairSums:
    """Every spectral pair sum of the family, from one pass over its
    blocks (`_pair_sums_over` of the family alone) on first use.

    S has no matrix element between blocks, so each sum runs over the
    pairs inside one block, weighted by its copies.  A block's arrays are
    dropped before the next block's are formed, so memory is bounded by
    the largest block and the family keeps only the six floats.
    """
    if _pair_sums.__name__ not in fam.memo:
        _pair_sums_over([fam])
    return fam.memo[_pair_sums.__name__]


_STACKED = ("levels", "s_pairs", "s_diagonal", "log_populations", "populations")


def _stacked(arrays: list) -> np.ndarray:
    """The one array all of ``arrays`` are, else their stack."""
    first = arrays[0]
    return first if all(a is first for a in arrays) else np.stack(arrays)


def _pair_sums_over(fams: Sequence[PerturbedFamily]) -> None:
    """Fill `_pair_sums` of each family of ``fams`` that has not formed it,
    from one pass per block for them all: the one pass that forms pair
    sums, for a family alone as for a beta chain or a stack.

    The families' blocks must match in count, sizes and copies, and
    each block's sectors must be one object in all (as in a
    `family_at_beta` chain) or None, else ValueError is raised.  Each
    block is summed as many families at a time as keep a (B, rows, cols)
    temporary within ``gibbs._CHUNK_ELEMENTS`` elements, so a block larger
    than that takes one family at a time.  A chunk of one family reaches
    `_block_sums` with its own block and a float beta.  A larger chunk
    stacks beta, and each array of the block only where the families
    hold different objects: a chain shares its levels and S.  Each
    family's floats are the same in any chunk.
    """
    todo = [fam for fam in fams if _pair_sums.__name__ not in fam.memo]
    if not todo:
        return
    blocks = todo[0].blocks
    for fam in todo[1:]:
        if len(fam.blocks) != len(blocks) or any(
            c.levels.size != b.levels.size or c.copies != b.copies or c.sectors is not b.sectors
            for b, c in zip(blocks, fam.blocks)
        ):
            raise ValueError("a stacked pass needs families whose blocks match in shape")
    sums = [(0.0,) * len(_PairSums._fields)] * len(todo)
    for k, b in enumerate(blocks):
        step = max(1, gibbs._CHUNK_ELEMENTS // max(1, b.s_pairs.size))
        for lo in range(0, len(todo), step):
            chunk = todo[lo : lo + step]
            if len(chunk) == 1:  # no stack axis
                (fam,) = chunk
                c = fam.blocks[k]
                diagonal = _rho_prime_diagonal(fam.beta, c.populations, c.s_diagonal, fam.s_mean)
                columns = [_block_sums(c, fam.beta, diagonal)]
            else:
                stack = b._replace(**{
                    name: _stacked([getattr(fam.blocks[k], name) for fam in chunk])
                    for name in _STACKED
                })
                beta = np.array([fam.beta for fam in chunk])[:, None]
                s_mean = np.array([fam.s_mean for fam in chunk])[:, None]
                diagonal = _rho_prime_diagonal(beta, stack.populations, stack.s_diagonal, s_mean)
                terms = _block_sums(stack, beta[..., None], diagonal)
                columns = zip(*(t.tolist() for t in terms))
            for j, column in enumerate(columns, lo):
                sums[j] = [t + b.copies * float(x) for t, x in zip(sums[j], column)]
    for fam, column in zip(todo, sums):
        fam.memo[_pair_sums.__name__] = _PairSums(*column)


def rho_prime(fam: PerturbedFamily) -> tuple:
    """Derivative of the Gibbs state at h = 0, one matrix per block as in
    `perturbed_density`.

    Off-diagonal elements are S_mn (p_n - p_m)/(T_m - T_n), the
    difference quotient being beta/2 times the ratio kernel shared with
    chi_F and the BD product, so the subtraction never cancels; inside
    the degeneracy window the quotient goes to its limit in the
    symmetrized form beta sqrt(p_m p_n).  Diagonal elements are
    beta p_m (S_mm - <S>).  rho' is block diagonal like S, sum_b d_b
    tr(rho'_b) vanishes up to rounding, and rho'_b is real when S_b is.
    """
    return tuple(
        _rho_prime_block(fam, b, _pair_kernels(fam.beta, b.levels, b.log_populations)[-1])
        for b in fam.blocks
    )


def _degenerate_pairs(fam: PerturbedFamily, levels, copies, bgap: np.ndarray) -> int:
    """Unordered pairs of states within the degeneracy window: the copies of
    one level, then the sorted levels k = 1, 2, ... apart with their copies
    until none is in it; ``bgap`` is beta times the neighbouring gaps."""
    total = sum(b.levels.size * (b.copies * (b.copies - 1) // 2) for b in fam.blocks)
    close, k = bgap < DEGENERATE_GAP, 1
    while close.any():
        d = np.broadcast_to(copies, levels.shape)
        total += int(np.dot(d[k:][close], d[:-k][close]))
        k += 1
        close = fam.beta * (levels[k:] - levels[:-k]) < DEGENERATE_GAP
    return total


@_memoized
def chi_f_spectral(fam: PerturbedFamily) -> FidelitySusceptibility:
    """Fidelity susceptibility from the spectral kernel sum.

    The total is (beta^2/4) times the population variance of the diagonal
    of S plus (beta^2/8) sum_{m != n} of
    [p_n (1 - e^{-2x})/x] [tanh(x)/x] |S_nm|^2 with x = beta(T_m - T_n)/2.
    The classical part is (beta^2/4) times the population variance of the
    eigenspace averages tr_E(S)/d_E, independent of the basis inside each
    eigenspace.  Consecutive levels of the whole space closer than the
    degeneracy window (``beta * gap < DEGENERATE_GAP``) form one
    eigenspace, which may span blocks and copies.  Inside a window split
    by a tiny gap the average is weighted by the populations, so the
    variance of the diagonal splits exactly into the variance of the
    averages plus the spread of S_mm about them; the quantum part is the
    pair sum plus (beta^2/4) times that spread.

    The total is recomputed from |rho'_mn|^2 / (2(p_m + p_n)) and the two
    routes must agree, which catches kernel regressions at the call site
    rather than in downstream bounds.

    Raises
    ------
    CrossCheckError
        check "chi_f_forms" if the kernel and direct routes disagree
        beyond ``CHI_INTERNAL_REL``.
    """
    sums = _pair_sums(fam)
    return _chi_f(fam, sums.chi_f_direct, sums.chi_f)


def _chi_f(fam: PerturbedFamily, direct: float, kernel: float) -> FidelitySusceptibility:
    """chi_F from its direct-form and kernel pair sums (`chi_f_spectral`)."""
    beta = fam.beta
    # every level of the whole space in ascending order, with the log and
    # the weight d p_m of all its copies; a new eigenspace starts wherever
    # the sorted spectrum leaves the degeneracy window, and S_mm - <S> is
    # averaged over each one with weights d p_m / (d p)_first
    if len(fam.blocks) == 1 and fam.blocks[0].copies == 1:  # already sorted and weighted
        (b,) = fam.blocks
        levels, copies, lp, p = b.levels, 1, b.log_populations, b.populations
        delta_d = b.s_diagonal - fam.s_mean
    else:
        # the order does not depend on beta: one sort per family chain
        if "sorted_levels" not in fam.shared:
            levels = np.concatenate([b.levels for b in fam.blocks])
            copies = np.concatenate([np.full(b.levels.size, b.copies) for b in fam.blocks])
            order = np.argsort(levels, kind="stable")
            fam.shared["sorted_levels"] = tuple(map(_freeze, (order, levels[order], copies[order])))
        order, levels, copies = fam.shared["sorted_levels"]
        cols = [
            (b.log_populations + math.log(b.copies), b.copies * b.populations,
             b.s_diagonal - fam.s_mean)
            for b in fam.blocks
        ]
        lp, p, delta_d = (np.concatenate(c)[order] for c in zip(*cols))
    bgap = beta * (levels[1:] - levels[:-1])
    first = np.concatenate(([True], bgap >= DEGENERATE_GAP))
    space = np.cumsum(first) - 1
    w = np.exp(lp - lp[first][space])
    avg = (np.bincount(space, w * delta_d) / np.bincount(space, w))[space]
    spread = float(np.dot(p, (delta_d - avg) ** 2))
    quantum = 0.125 * beta * beta * kernel + 0.25 * beta * beta * spread
    classical = 0.25 * beta * beta * float(np.dot(p, avg**2))
    total = classical + quantum
    check_agreement(
        "chi_f_forms", total, direct, CHI_INTERNAL_REL,
        ("kernel form", "direct form"),
    )

    n_deg = _degenerate_pairs(fam, levels, copies, bgap)
    return FidelitySusceptibility(
        total=total,
        classical=classical,
        quantum=quantum,
        degenerate_pair_count=n_deg,
    )


def ds2_spectral(fam: PerturbedFamily) -> float:
    """Leading coefficient of the squared Bures distance, d_B^2 / h^2.

    Evaluated as (beta^2/4) Var(S^d) plus the unordered pair sum of
    p_low (1 - e^{-2X})^2 / ((1 + e^{-2X}) (T_m - T_n)^2) |S_mn|^2.  Term
    by term this equals the fidelity susceptibility; computing it through
    this second composition keeps the equality test meaningful.
    """
    beta = fam.beta
    return 0.25 * beta * beta * fam.s_variance + 0.5 * _pair_sums(fam).ds2


def chi_fg_spectral(fam: PerturbedFamily) -> float:
    """Green's-function susceptibility from its spectral sum.

    (beta^2/8) Var(S^d) plus the unordered pair sum of
    (sqrt(p_m) - sqrt(p_n))^2 / (T_m - T_n)^2 |S_mn|^2, the square root
    difference rewritten as p_low expm1(-X)^2 so it never cancels.
    """
    beta = fam.beta
    return 0.125 * beta * beta * fam.s_variance + 0.5 * _pair_sums(fam).chi_fg


def chi_fg_integral(fam: PerturbedFamily) -> float:
    """Green's-function susceptibility as int_0^{beta/2} tau G(tau) dtau.

    The 64-node Gauss-Legendre quadrature of tau G(tau), the independent
    route that audits `chi_fg_spectral`: it shares no pair kernel with the
    spectral sum, only the two-point function ``correlation_G``, read from
    the family's one grid (`_half_circle_G`).  The quadrature is returned
    only after it agrees with the spectral value that every report
    publishes.

    Raises
    ------
    CrossCheckError
        check "chi_fg_quadrature" if the quadrature and the spectral sum
        disagree beyond ``QUADRATURE_AGREEMENT_REL``.
    """
    _, weights = _gauss_legendre_64()
    taus, g = _half_circle_G(fam)
    quad = 0.25 * fam.beta * float(np.sum(weights * (taus * g)))
    check_agreement(
        "chi_fg_quadrature", chi_fg_spectral(fam), quad, QUADRATURE_AGREEMENT_REL,
        ("spectral sum", "64-node quadrature"),
    )
    return quad


def chi_f_ground_state(fam: PerturbedFamily) -> float:
    """Zero-temperature limit: sum over |S_n0|^2 / (T_n - T_0)^2 inside
    the block of the ground state, since S has no element out of it.

    Raises `DegenerateGroundStateError` if that block has more than one
    copy, or the next level of any block lies within ``GROUND_STATE_GAP``.
    """
    ground = min(fam.blocks, key=lambda b: b.levels[0])
    ev = ground.levels
    above = [b.levels[1:2] if b is ground else b.levels[:1] for b in fam.blocks]
    gap = float(np.min(np.concatenate(above), initial=np.inf) - ev[0])
    if ground.copies > 1 or gap <= GROUND_STATE_GAP:
        raise DegenerateGroundStateError(
            f"ground level: {ground.copies} copies, gap {gap:.3e}, "
            f"tolerance {GROUND_STATE_GAP:g}"
        )
    col = ground.s_eig[1:, 0]
    return float(np.sum(np.abs(col) ** 2 / (ev[1:] - ev[0]) ** 2))


def perturbed_density(fam: PerturbedFamily, h: float) -> tuple:
    """Density matrix of H(h) = T - h S at the family's beta, block
    diagonal like S: a tuple of one matrix per block, in ``fam.blocks``
    order, each in its block's T-eigenbasis and standing for every copy.

    Used by the finite-difference oracles.  Each block of the perturbed
    Hamiltonian is diagonalized in full, once for all its copies.
    """
    solved, lps = _perturbed_spectrum(fam, float(h))
    rhos = [(u * np.exp(lp)) @ u.conj().T for (_, u), lp in zip(solved, lps)]
    return tuple(0.5 * (rho + rho.conj().T) for rho in rhos)


def _density_spectrum(rho):
    try:
        op = validate_hermitian(rho)
        if op.matrix.ndim != 2:
            raise NotSquareError(f"expected a square matrix, got shape {op.matrix.shape}")
    except (NotSquareError, NotHermitianError, NonFiniteError) as exc:
        raise NotDensityMatrixError(str(exc)) from exc
    w, u = eig_hermitian(op)
    tr = float(w.sum())
    if abs(tr - 1.0) > DENSITY_TRACE:
        raise NotDensityMatrixError(f"trace is {tr!r}, not 1 within {DENSITY_TRACE:g}")
    if float(w[0]) < -PSD_CLIP:
        raise NotDensityMatrixError(f"eigenvalue {float(w[0])!r} below -{PSD_CLIP:g}")
    return w, u


def _nuclear_fidelity(a: np.ndarray, b: np.ndarray, overlap: np.ndarray) -> float:
    """Fidelity ||sqrt(rho1) sqrt(rho2)||_1 from half-log weights.

    ``a`` and ``b`` are half the log eigenvalues of the two states and
    ``overlap`` is U1^H U2, the inner products of their eigenbases, so
    sqrt(rho1) sqrt(rho2) = U1 [exp(a_m + b_n) overlap_mn] U2^H and F is
    the sum of the singular values of the bracket.  The factor is formed
    entrywise in log space, so it never overflows, and LAPACK's
    ``np.linalg.svd`` takes its singular values (real or complex, as the
    factor is); a LAPACK failure raises `NoConvergenceError`.
    """
    factor = np.exp(a[:, None] + b[None, :]) * overlap
    try:
        return float(np.linalg.svd(factor, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"svd did not converge: {exc}") from exc


def uhlmann_fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), in [0, 1] up
    to rounding and 1 iff the states coincide.

    Taken as the nuclear norm ||sqrt(rho1) sqrt(rho2)||_1, with one SVD,
    from the checked spectra of the two inputs: the route of `chi_f_fd`,
    which explains why the square roots of the eigenvalues of the formed
    product would lose sqrt(eps).  The arrays ``rho1`` and ``rho2`` must
    be Hermitian, of unit trace and positive semidefinite within the clip
    tolerance, or `NotDensityMatrixError` is raised.
    """
    (w1, u1), (w2, u2) = _density_spectrum(rho1), _density_spectrum(rho2)
    if w1.size != w2.size:
        raise DimensionMismatchError(f"dimensions {w1.size} and {w2.size} differ")
    with np.errstate(divide="ignore"):  # a zero eigenvalue has weight exp(-inf) = 0
        a, b = (0.5 * np.log(np.clip(w, 0.0, None)) for w in (w1, w2))
    return _nuclear_fidelity(a, b, u1.conj().T @ u2)


def bures_distance(rho1, rho2) -> float:
    """Bures distance sqrt(2 - 2 F(rho1, rho2))."""
    f = uhlmann_fidelity(rho1, rho2)
    return math.sqrt(max(0.0, 2.0 - 2.0 * f))


def chi_f_fd(fam: PerturbedFamily, h: float) -> float:
    """Finite-difference susceptibility, the oracle for chi_f_spectral.

    Builds rho(+-h) and rho(+-h/2) by full exponentiation of each block
    (`_perturbed_spectrum`), forms the symmetric quotient
    chi(step) = (2 - F_+ - F_-)/step^2 and Richardson extrapolates:
    (4 chi(h/2) - chi(h))/3, which cancels the step^2 error and every odd
    order.  rho(0) and rho(step) are block diagonal with the family's
    blocks, so F = sum_b d_b ||sqrt(rho_b(0)) sqrt(rho_b(step))||_1, each
    nuclear norm from half-log weights (``_nuclear_fidelity``, the route
    `uhlmann_fidelity` shares).  Only the sum F matters, and its absolute
    error of about n_b eps per block stays well below
    1 - F ~ chi_f step^2 / 2 while 1 - F is above the cancellation floor.
    An eigendecomposition of the formed product
    sqrt(rho(0)) rho(step) sqrt(rho(0)) would instead take square roots
    of eigenvalues known to absolute eps, an error of order sqrt(eps)
    that 1/step^2 then amplifies.

    The floor is absolute: at h = 1e-3 on random dim-8 families the
    error stays near 1e-9, so relative to |chi_f| it grows from about
    1e-8 at chi_f ~ 0.5 to 0.3e-6 - 4e-6 at chi_f ~ 3e-4 - 2e-3, which
    a check scaled by max(1, |chi_f|) does not see.  It follows the block
    size: on full-space Dicke N = 6 (dim 832, blocks of up to 91) the miss
    is 1.2e-10, where one dense solve of the whole space gave 3.0e-8.

    Raises
    ------
    StepTooSmallError
        When 1 - F drops below 100 machine epsilon and the quotient would
        be pure cancellation noise.
    ValueError
        If ``h`` is outside (0, 0.1].
    """
    h = float(h)
    if not 0.0 < h <= 0.1:
        raise ValueError(f"step must lie in (0, 0.1], got {h!r}")
    floor = 100.0 * _EPS

    def quotient(step: float) -> float:
        defect = 0.0
        for sign in (1.0, -1.0):
            solved, lps = _perturbed_spectrum(fam, sign * step)
            loss = 1.0 - sum(
                b.copies * _nuclear_fidelity(0.5 * b.log_populations, 0.5 * lp, u)
                for b, (_, u), lp in zip(fam.blocks, solved, lps)
            )
            if loss < floor:
                raise StepTooSmallError(
                    f"1 - F = {loss:.3e} at step {sign * step:g} is below "
                    f"the cancellation floor {floor:.3e}"
                )
            defect += loss
        return defect / (step * step)

    return (4.0 * quotient(0.5 * h) - quotient(h)) / 3.0
