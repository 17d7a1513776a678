"""The Gibbs family of H(h) = T - h S at h = 0, the one thermal-state type.

A family is its symmetry blocks: a builder passes, per symmetry sector,
its T_b, S_b and number d_b of identical copies, so dim = sum_b d_b n_b;
a dense (T, S) is the one-block case.  Two sectors of a block that T
keeps and S flips are declared (Dicke's parity) or found (`_parity`).
A block is a `Block` from its solve (`_solve`) on, which `_thermalize`
weighs at one beta.  `block_family` builds a family from blocks,
`make_family` from one dense pair, `make_families` one family from each
member of a stack of dense pairs of one shape, every member solved
whole by one stacked solve and weighed in one pass, and `family_at_beta`
weighs a family's very blocks at another beta without re-diagonalizing.
Each block keeps its ascending levels, S_b in their eigenbasis (only the
rectangle between its sectors) and the log Boltzmann weights of its
levels against the Z of the whole space; no eigenbasis is kept.  S has
no matrix element between two blocks or two copies, so every route runs
block by block, weighted by the copies: the pair sums
(`fidelity._pair_sums`), thermal averages and the solves of T_b - h S_b
(`_displaced_spectra`).  The whole space is never assembled, and
``DIMENSION_BUDGET`` bounds each block only.  Populations are kept in
log space so that large inverse temperatures never overflow.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import (
    DIMENSION_BUDGET,
    EIGENBASIS_HERMITIAN,
    THERMAL_AVERAGE_RESIDUE,
)
from .errors import (
    DimensionBudgetError,
    DimensionMismatchError,
    NonPositiveBetaError,
    NotHermitianError,
    NotSquareError,
    SectorDeclarationError,
    TauOutOfRangeError,
)
from .linalg import (
    HermitianOperator,
    _freeze,
    _norms,
    _require,
    eig_hermitian,
    validate_hermitian,
)

__all__ = [
    "Block",
    "PerturbedFamily",
    "block_family",
    "make_family",
    "make_families",
    "family_at_beta",
    "thermal_average",
    "correlation_G",
]


class Block(NamedTuple):
    """``copies`` identical copies of one symmetry sector at one beta: the
    ascending levels of its T_b, S_b in their eigenbasis on the pairs
    its sums run over (``s_pairs``, read-only), the real diagonal of S_b
    (``s_diagonal``, zero where the block has sectors), and log p_n and
    p_n of the levels of one copy against the Z of the whole family, so
    sum_b d_b sum_n p_n = 1.  ``sectors`` is None, or for a block with
    two sectors (see `block_family`) the positions in ``levels`` of the
    first sector's levels and of the second's; ``s_pairs`` is then the
    rectangle S_b[first, second], S_b having no other entry.

    A block is made when it is solved (`_solve`), its two weight fields
    None until `_thermalize` fills them.  Every array field may also
    carry a leading family axis: a stack solved and weighed at once
    (`_solve_whole`, `_thermalize`) or stacked by `_stacked_block`."""

    levels: np.ndarray
    s_pairs: np.ndarray
    s_diagonal: np.ndarray
    copies: int
    log_populations: np.ndarray
    populations: np.ndarray
    sectors: tuple | None

    @property
    def s_eig(self) -> np.ndarray:
        """S_b whole (Hermitian, read-only), formed anew from the rectangle
        where the block has sectors."""
        if self.sectors is None:
            return self.s_pairs
        rows, cols = self.sectors
        s = np.zeros((self.levels.size,) * 2, dtype=self.s_pairs.dtype)
        s[rows[:, None], cols] = self.s_pairs
        s[cols[:, None], rows] = self.s_pairs.conj().T
        return _freeze(s)


@dataclass(frozen=True, eq=False)
class PerturbedFamily:
    """The Gibbs state e^{-beta T}/Z of a family H(h) = T - h S at h = 0.

    Attributes
    ----------
    beta : float
        Inverse temperature, strictly positive.
    blocks : tuple of Block
        The symmetry blocks, in the order the builder passed them.
    quasi_free : ndarray or None
        For a family of free fermions whose S is the total transverse
        field (`tfim`), the real N x N one-body matrix M(0) such that
        T - h S = sum_k s_k (eta_k^dag eta_k - 1/2), s_k the singular
        values of M(h) = M(0) + 2 h I; None for every other family.
    shared : dict
        Values that do not depend on beta, formed on first use.
        `family_at_beta` hands the same dict on, so every temperature
        of the family reads them and a beta sweep forms each once.
        Keyed by the field h, the chi_N oracle's solves of T - h S: per
        block, the ascending levels and the diagonal of S in their
        eigenbasis.  Keyed by ("one_body", h), for a ``quasi_free``
        family: the singular values s_k of M(h) and the slopes
        ds_k/dh / 2 (see `bounds._one_body_terms`).  Keyed by
        "double_commutator": per block, the checked diagonal of
        K S - S K, K = [S, T] (`bounds._commutators_over`, also stacked).
        Keyed by "spread": the chi_N oracle's sigma(S) (see
        `bounds.free_energy_curvature`).  Keyed by "sorted_levels", for
        a family of more than one block or copy: the stable ascending
        order of all blocks' levels, the sorted levels and the copies of
        each, read by `fidelity.chi_f_spectral`.
    log_z, s_mean, s_variance : float
        log Z, the thermal mean <S> and the population variance of the
        diagonal of S, sum_m p_m (S_mm - <S>)^2.
    underflow_count : int
        Number of states whose population flushed to zero.
    particle_count : int
        The number of particles the builder says S sums over, for
        per-particle values; never inferred from the dimension.
    dim : int
        sum_b d_b n_b, the dimension of the whole space.
    memo : dict
        Values computed from this family, so a second request is free:
        the scalars of `fidelity._pair_sums` (every spectral pair sum,
        from one pass per block that keeps no pair array,
        `fidelity._pair_sums_over`, made for the family alone or over a
        leading family axis: a beta sweep for all its temperatures,
        ``verify`` for each stack of random families of one dimension),
        the results of `chi_f_spectral` and `double_commutator_direct`, and
        `fidelity._half_circle_G`, the quadrature oracles' read-only G
        grid (`fidelity._half_circles_over`, also stacked).  Every family
        starts with it empty, a `family_at_beta` copy too.
    """

    beta: float
    blocks: tuple = field(repr=False)
    quasi_free: np.ndarray | None = field(repr=False)
    shared: dict = field(repr=False)
    log_z: float
    s_mean: float
    s_variance: float
    underflow_count: int
    particle_count: int
    dim: int
    memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def sign_odd(self) -> bool:
        """Whether every block has sectors, so that <S>_{-h} = -<S>_h."""
        return all(b.sectors is not None for b in self.blocks)


_STACKED = ("levels", "s_pairs", "s_diagonal", "log_populations", "populations")  # Block arrays


def _stacked(arrays: list) -> np.ndarray:
    """The one array all of ``arrays`` are, else their stack."""
    first = arrays[0]
    return first if all(a is first for a in arrays) else np.array(arrays)


def _matched(fams: Sequence[PerturbedFamily]) -> tuple:
    """``fams[0].blocks``; ValueError unless all match in count, size, copies and sectors."""
    shapes = [[(b.levels.size, b.copies, id(b.sectors)) for b in fam.blocks] for fam in fams]
    if any(shape != shapes[0] for shape in shapes):
        raise ValueError("a stacked pass needs families whose blocks match in shape")
    return fams[0].blocks


def _stacked_block(fams: Sequence[PerturbedFamily], k: int, stack=np.array) -> Block:
    """Block k of `_matched` families ``stack``ed on a leading axis (alone: its own)."""
    if len(fams) == 1:
        return fams[0].blocks[k]
    fields = {name: stack([getattr(f.blocks[k], name) for f in fams]) for name in _STACKED}
    return fams[0].blocks[k]._replace(**fields)


def _memoized(fn: Callable[[PerturbedFamily], object]) -> Callable:
    """``fn(fam)``, computed once per family and kept in ``fam.memo``."""

    @functools.wraps(fn)
    def cached(fam: PerturbedFamily):
        if fn.__name__ not in fam.memo:
            fam.memo[fn.__name__] = fn(fam)
        return fam.memo[fn.__name__]

    return cached


def _log_weights(levels: list, copies: list, beta) -> tuple[list, float | np.ndarray]:
    """Log Boltzmann weights of each block's levels and log Z at beta, the
    levels of block b counting ``copies[b]`` times, from the lowest level so
    nothing overflows; (n_b, B) levels and a (B,) beta weigh B families."""
    low = functools.reduce(np.minimum, [w[0] for w in levels])
    shifted = [-beta * (w - low) for w in levels]
    if len(shifted) == 1 and copies[0] == 1:
        lse = np.logaddexp.reduce(shifted[0])
    else:
        logs = [s + math.log(c) for s, c in zip(shifted, copies)]
        lse = np.logaddexp.reduce(np.concatenate(logs))
    return [s - lse for s in shifted], lse - beta * low


def _displaced_spectra(fam: PerturbedFamily, h: float) -> Iterator[tuple]:
    """The checked (levels, basis) of T_b - h S_b in each block's
    T-eigenbasis, one block at a time in ``fam.blocks`` order, once for all
    its copies: a caller that keeps less than the basis holds one at a
    time.  Nothing is cached.

    Each matrix is written from the block's levels and its whole S_b
    (`Block.s_eig`).  S_b is exactly Hermitian, so the matrix is too, and
    it goes to `eig_hermitian`, whose residual and unitarity checks still
    run, without `validate_hermitian`."""
    for b in fam.blocks:
        m = np.diag(b.levels) - h * b.s_eig
        yield eig_hermitian(HermitianOperator(_freeze(m), b.levels.size))


def _perturbed_spectrum(fam: PerturbedFamily, h: float) -> tuple[list, list]:
    """Per block, the decomposition of T_b - h S_b (`_displaced_spectra`)
    and the log weights of its levels against log Z(h) of the whole
    family at its beta."""
    solved = list(_displaced_spectra(fam, h))
    copies = [b.copies for b in fam.blocks]
    return solved, _log_weights([w for w, _ in solved], copies, fam.beta)[0]


def _flips(t: np.ndarray, s: np.ndarray, first: np.ndarray) -> bool:
    """Whether D = diag(+-1), +1 where ``first`` is true, keeps t and flips
    s exactly: t has no entry between the sectors and s none inside either."""
    second = ~first
    inside = s[np.ix_(first, first)].any() or s[np.ix_(second, second)].any()
    return not (inside or t[np.ix_(first, second)].any())


def _parity(t: np.ndarray, s: np.ndarray) -> np.ndarray | None:
    """The sector of state 0, as a boolean mask, under a D = diag(+-1) that
    keeps t and flips s in the basis the builder wrote them in; None if
    no D does.  D exists exactly when s has a zero diagonal and the
    states two-colour so that t links states of one colour and s states
    of opposite colours, so a pair that both link answers None at once.
    Each connected component of the joint nonzero pattern is coloured
    breadth first, a new state taking its colour from one coloured
    neighbour, and the colouring is then checked (`_flips`)."""
    if s.diagonal().any():
        return None
    same, flip = t != 0, s != 0
    if np.any(same & flip):
        return None
    linked = same | flip
    colour = np.zeros(s.shape[0], dtype=bool)
    seen = np.zeros(s.shape[0], dtype=bool)
    while not seen.all():
        level = np.flatnonzero(~seen)[:1]
        seen[level] = True
        while level.size:
            new = np.flatnonzero(linked[level].any(axis=0) & ~seen)
            parent = level[np.argmax(linked[np.ix_(level, new)], axis=0)]
            colour[new] = colour[parent] ^ flip[parent, new]
            seen[new] = True
            level = new
    return ~colour if _flips(t, s, ~colour) else None


def _betas(beta) -> np.ndarray:
    """beta, or each of a sequence, as float64 checked positive and finite."""
    beta = np.asarray(beta, dtype=float)
    _require(np.isfinite(beta) & (beta > 0.0), NonPositiveBetaError,
             lambda k: f"beta must be positive and finite, got {float(beta[k])!r}")
    return beta


def _thermalize(beta, blocks: Sequence[Block], particle_count: int, quasi_free, shared):
    """The family of the solved blocks at beta, weights filled, ``shared``
    its beta-independent values (None: new).  A (B,) beta and blocks with
    a leading member axis give B families in one pass, each as alone."""
    beta = _betas(beta)
    lps, log_z = _log_weights([b.levels.T for b in blocks], [b.copies for b in blocks], beta[()])
    weighed, s_mean, underflow, dim = [], 0.0, 0, 0
    for b, lp in zip(blocks, lps):
        lp = _freeze(lp.T)
        p = _freeze(np.exp(lp))
        weighed.append(b._replace(log_populations=lp, populations=p))
        s_mean = s_mean + b.copies * np.vecdot(p, b.s_diagonal)
        underflow = underflow + b.copies * np.add.reduce(p == 0.0, -1)
        dim += b.copies * b.levels.shape[-1]
    s_variance = 0.0
    for b in weighed:
        delta_d = b.s_diagonal - s_mean[..., None]
        s_variance = s_variance + b.copies * np.vecdot(b.populations, delta_d**2)
    def family(blocks, beta, log_z, s_mean, s_variance, underflow):
        return PerturbedFamily(beta, blocks, quasi_free, {} if shared is None else shared,
                               log_z, s_mean, s_variance, underflow, particle_count, dim)
    scalars = beta, log_z, s_mean, s_variance, underflow
    if beta.ndim == 0:
        return family(tuple(weighed), *(x.item() for x in scalars))
    members = (
        tuple(b._replace(**{name: getattr(b, name)[k] for name in _STACKED}) for b in weighed)
        for k in range(beta.size))
    return list(map(family, members, *(x.tolist() for x in scalars)))


def _require_hermitian(parts: Sequence[np.ndarray], what: str) -> np.ndarray:
    """max(1, ||A||_F) of the direct sum A of the square ``parts``, after
    checking max |A - A^H| against ``EIGENBASIS_HERMITIAN`` times it; a
    NaN defect fails.  Parts of shape (..., n, n) give a scale and a check
    per member, and a failure names the member."""
    scale = np.maximum(1.0, functools.reduce(np.hypot, map(_norms, parts)))
    asym = functools.reduce(
        np.maximum, (np.abs(a - a.conj().mT).max(axis=(-2, -1), initial=0.0) for a in parts)
    )
    _require(asym <= EIGENBASIS_HERMITIAN * scale, NotHermitianError,
             lambda k: f"{what}: defect {asym[k]:.3e}")
    return scale


def _diagonal(parts: Sequence[np.ndarray], sectors: tuple | None, what: str) -> tuple:
    """The diagonal of a block operator A_b that must be Hermitian
    (`_require_hermitian`), as (Re, Im or None where A_b is real,
    max(1, ||A_b||_F)), per member of a stack.  A_b is ``parts[0]`` when
    ``sectors`` is None, and the diagonal is then a view of it; else A_b
    is ``parts[k]`` on the positions ``sectors[k]`` and 0 between them."""
    scale = _require_hermitian(parts, what)
    if sectors is None:
        d = np.diagonal(parts[0], axis1=-2, axis2=-1)
    else:
        d = np.empty(sum(k.size for k in sectors), dtype=np.result_type(*parts))
        for k, a in zip(sectors, parts):
            d[k] = np.diagonal(a)
    return np.real(d), np.imag(d) if np.iscomplexobj(d) else None, scale


def _weigh(diagonals: Iterable) -> float:
    """sum_b d_b sum_m p_m Re (A_b)_mm over (block, `_diagonal` of A_b)
    pairs, warning when an imaginary residue sum_m p_m Im (A_b)_mm
    exceeds ``THERMAL_AVERAGE_RESIDUE`` max(1, ||A_b||_F)."""
    total = 0.0
    for b, (re, im, scale) in diagonals:
        residue = 0.0 if im is None else abs(float(np.dot(b.populations, im)))
        if residue > THERMAL_AVERAGE_RESIDUE * scale:
            warnings.warn(f"thermal average has imaginary residue {residue:.3e}", stacklevel=3)
        total += b.copies * float(np.dot(b.populations, re))
    return total


def _solve_whole(T: HermitianOperator, S: HermitianOperator, copies: int) -> Block:
    """The block of T and S solved whole, its weights unset: the levels
    from one solve of T, S in their eigenbasis and its real diagonal.  A
    stack gives the block of every member from one solve, each array
    field with a leading member axis."""
    levels, b = eig_hermitian(T)
    s_eig = b.conj().mT @ S.matrix @ b
    # the rotation is unitary up to BASIS_UNITARITY, so Hermiticity
    # survives to the same order; re-symmetrize to make it exact
    _require_hermitian([s_eig], "perturbation lost Hermiticity in the basis rotation")
    s_eig = _freeze(0.5 * (s_eig + s_eig.conj().mT))
    s_diagonal = np.real(np.diagonal(s_eig, axis1=-2, axis2=-1))
    return Block(levels, s_eig, s_diagonal, copies, None, None, None)


def _solve_sectors(T: HermitianOperator, S: HermitianOperator, first) -> tuple:
    """(levels, the rectangle of S between the sectors, sectors) from one
    solve per sector: the states where ``first`` is true and the rest.
    The levels are merged ascending (stable, first sector first), and
    ``sectors`` holds the positions of each sector's levels among them.
    Raises `SectorDeclarationError` unless ``first`` is a boolean mask of
    the block's size that T keeps and S flips exactly (`_flips`)."""
    first = np.asarray(first)
    if first.dtype != bool or first.shape != (T.dim,):
        raise SectorDeclarationError(
            f"a sector mask of the block's {T.dim} states must be boolean, "
            f"got {first.dtype} of shape {first.shape}"
        )
    t, s = T.matrix, S.matrix
    if not _flips(t, s, first):
        raise SectorDeclarationError("T links the two sectors or S links one to itself")
    second = ~first
    # a square block of a validated matrix is exactly Hermitian itself
    (w1, u1), (w2, u2) = (
        eig_hermitian(HermitianOperator(_freeze(t[np.ix_(k, k)]), int(np.count_nonzero(k))))
        for k in (first, second)
    )
    rect = u1.conj().T @ s[np.ix_(first, second)] @ u2
    levels = np.concatenate((w1, w2))
    order = np.argsort(levels, kind="stable")
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    sectors = (_freeze(at[: w1.size]), _freeze(at[w1.size :]))
    return _freeze(levels[order]), _freeze(rect), sectors


def _solve(T: HermitianOperator, S: HermitianOperator, first, copies: int) -> Block:
    """The block of T and S, solved whole where ``first`` is None and else
    by its sectors (its ``s_diagonal`` then zero), with its weights unset
    until `_thermalize` weighs it."""
    if first is None:
        return _solve_whole(T, S, copies)
    levels, s_pairs, sectors = _solve_sectors(T, S, first)
    return Block(levels, s_pairs, _freeze(np.zeros(levels.size)), copies, None, None, sectors)


def _validated(T, S, ndim: int) -> tuple:
    """T and S through `validate_hermitian`, of one shape of ``ndim`` axes
    (2 for one block, 3 for a stack), their side checked against
    ``DIMENSION_BUDGET`` before either is read; a block has a state."""
    for a in (T, S):
        n = max(np.shape(a)[-2:], default=0)
        if n > DIMENSION_BUDGET:
            raise DimensionBudgetError(
                f"block dimension {n} exceeds budget {DIMENSION_BUDGET}"
            )
    T, S = validate_hermitian(T), validate_hermitian(S)
    if T.matrix.ndim != ndim:
        raise NotSquareError(f"expected {ndim} axes, got shape {T.matrix.shape}")
    if S.matrix.shape != T.matrix.shape:
        raise DimensionMismatchError(
            f"perturbation has shape {S.matrix.shape} but T {T.matrix.shape}"
        )
    if T.dim < 1:
        raise ValueError("a block needs at least one state")
    return T, S


def block_family(
    blocks: Iterable, beta: float, particle_count: int = 1, quasi_free: np.ndarray | None = None
) -> PerturbedFamily:
    """Diagonalize each block's T, rotate its S into that eigenbasis and
    thermalize the direct sum at beta.

    ``blocks`` is any iterable, a generator too, of one (T_b, S_b, d_b) or
    (T_b, S_b, d_b, first) per symmetry sector: T and S as arrays in one
    basis, and the number of identical copies, an integer >= 1.  Each
    block is solved before the next one is drawn, and only its levels and
    rotated S are kept.  A boolean mask ``first`` declares two sectors, T
    linking none to the other and S none to itself; a block without one
    has them searched for (`_parity`).  A block with sectors is solved
    sector by sector (`_solve_sectors`), every other block whole.
    ``particle_count``, an integer, is the number of particles the builder
    says S sums over.  ``quasi_free`` is the builder's one-body M(0) of a
    free-fermion family (see `PerturbedFamily`), stored read-only, or None.

    Raises `DimensionBudgetError` for a block above ``DIMENSION_BUDGET``
    before validating or solving it, `SectorDeclarationError` for a
    declaration that T and S do not keep, and ValueError for a block
    with no state or no copy.
    """
    particle_count = operator.index(particle_count)
    if particle_count < 1:
        raise ValueError(f"particle_count must be >= 1, got {particle_count}")
    solved = []
    for T, S, copies, *declared in blocks:
        T, S = _validated(T, S, 2)
        copies = operator.index(copies)
        if copies < 1:
            raise ValueError(f"a block needs at least one copy, got {copies}")
        (first,) = declared or [_parity(T.matrix, S.matrix)]
        solved.append(_solve(T, S, first, copies))
    if not solved:
        raise ValueError("a family needs at least one block")
    if quasi_free is not None:
        quasi_free = _freeze(np.array(quasi_free, dtype=float))
    return _thermalize(beta, solved, particle_count, quasi_free, {})


def make_family(
    T: np.ndarray, S: np.ndarray, beta: float, particle_count: int = 1
) -> PerturbedFamily:
    """The one-block family of dense arrays T and S in one basis: see `block_family`."""
    return block_family([(T, S, 1)], beta, particle_count)


def make_families(T: np.ndarray, S: np.ndarray, betas: Sequence[float]) -> list[PerturbedFamily]:
    """The one-block family of each member of the (B, n, n) stacks T and
    S at ``betas[k]``, every member solved whole in the stack's dtype by
    one stacked `_solve_whole` and weighed by one `_thermalize` pass: the
    stacks are checked as `block_family` checks one block, and the betas
    before the solve, an error naming the first failing member.  No
    sectors are searched for, so a member is bit for bit ``make_family(
    T[k], S[k], betas[k])`` where that finds none and keeps the dtype, as
    for every GUE pair; a member with no imaginary part in a complex
    stack stays complex128.
    """
    T, S = _validated(T, S, 3)
    if np.shape(betas) != T.matrix.shape[:1]:
        raise DimensionMismatchError(f"{np.shape(betas)} betas for stacks {T.matrix.shape}")
    return _thermalize(_betas(betas), [_solve_whole(T, S, 1)], 1, None, None)


def family_at_beta(fam: PerturbedFamily, beta: float) -> PerturbedFamily:
    """Rebuild the family at a different temperature without re-diagonalizing.

    Each block's levels, S in their eigenbasis and its diagonal, copies
    and sectors, the one-body matrices and the ``shared`` dict (the chi_N
    oracle's displaced spectra and sigma(S), the commutator diagonals and
    the sorted levels) are temperature independent, and the new family
    holds the same objects (`_thermalize` weighs the family's own blocks
    again), so a field solved or a commutator formed at one temperature is
    not formed again at another, nor a chain's arrays stacked for its pair
    sums; only the weights, log Z and the perturbation mean change.
    """
    return _thermalize(beta, fam.blocks, fam.particle_count, fam.quasi_free, fam.shared)


def thermal_average(fam: PerturbedFamily, A: Iterable) -> float:
    """Average Tr(rho A) of a block-diagonal A given as one matrix A_b per
    block, in ``fam.blocks`` order, each in its block's T-eigenbasis and
    standing for every copy: sum_b d_b sum_m p_m Re (A_b)_mm.

    ``A`` may be a generator, so a caller can form one A_b at a time.  An
    imaginary residue above ``THERMAL_AVERAGE_RESIDUE`` relative to
    ``max(1, ||A_b||_F)`` (which a Hermitian A_b cannot produce beyond
    rounding of order eps ||A_b||) is reported as a warning.  Each A_b is
    checked and reduced to its diagonal by the same per-block routine
    (`_diagonal`, then `_weigh`) as `bounds.double_commutator_direct`.
    Raises `DimensionMismatchError` unless there is one A_b per block, of
    its block's shape, and `NotHermitianError` for a non-Hermitian A_b.
    """

    def diagonals():
        for k, (b, a) in enumerate(itertools.zip_longest(fam.blocks, A)):
            a = np.asarray(a)
            if b is None or a.shape != (b.levels.size,) * 2:
                sizes = [b.levels.size for b in fam.blocks]
                raise DimensionMismatchError(
                    f"operator {k} has shape {a.shape}; the blocks have sizes {sizes}"
                )
            yield b, _diagonal([a], None, "operator is not Hermitian")

    return _weigh(diagonals())


# fidelity._pair_sums_over takes families (the temperatures of one chain, or
# independent families of one shape) in chunks whose (families, n, n)
# temporaries hold about this many float64 elements (2 MiB), which bounds
# their memory at any block size and family count; correlation_G's hold
# 64 KiB, a dim-12 grid: at 128 KiB ``verify``'s peak RSS rose 0.2 MiB
_CHUNK_ELEMENTS = 2**18
_G_CHUNK_ELEMENTS = 2**13


def correlation_G(fam, tau) -> float | np.ndarray:
    """Imaginary-time autocorrelation G(tau) of the perturbation.

    G(tau) = sum_{m,n} p_m e^{tau (T_m - T_n)} |S_mn|^2 - <S>^2 for
    0 <= tau <= beta, over the pairs inside each block weighted by its
    copies.  The exponent is the convex combination
    (1 - tau/beta) log p_m + (tau/beta) log p_n, at most zero, so the sum
    never overflows; the diagonal part is the family's ``s_variance``,
    free of cancellation.  Swapping m and n maps tau to beta - tau, so
    G(tau) = G(beta - tau) (KMS): the quadrature oracles need [0, beta/2].

    ``tau`` is a float, or a 1-d sequence of floats for which an array of
    G values is returned; or, for a sequence of F `_matched` families, an
    (F, nodes) array of their nodes, for one pass giving (F, nodes) values.
    A block runs as many families at a time, all nodes, as keep a (families,
    nodes, n, n) temporary within ``_G_CHUNK_ELEMENTS``, else one family
    and as many nodes (one at least).  Each value is one exp and one sum
    over its own n x n slice, the same bits in any chunk or stack.

    Raises
    ------
    TauOutOfRangeError
        If ``tau`` is not of that shape or a value lies outside [0, beta].
    """
    alone = isinstance(fam, PerturbedFamily)
    fams = [fam] if alone else list(fam)
    try:
        taus = np.asarray(tau)
        well_formed = taus.dtype.kind in "iuf" and (
            taus.ndim <= 1 if alone else taus.shape[:1] == (len(fams),) and taus.ndim == 2)
    except ValueError:  # ragged nested sequences
        well_formed = False
    if not well_formed:
        shape = "a float or a 1-d sequence" if alone else f"a ({len(fams)}, nodes) array"
        raise TauOutOfRangeError(f"tau must be {shape} of floats in [0, beta], got {tau!r}")
    beta, s_variance = (np.array([getattr(f, a) for f in fams])[:, None]
                        for a in ("beta", "s_variance"))
    grid = taus.astype(float).reshape(len(fams), -1)
    inside = (grid >= 0.0) & (grid <= beta)
    _require(inside.all() if alone else inside.all(axis=-1), TauOutOfRangeError, lambda k: (
        f"tau must lie in [0, beta={fams[k[0] if k else 0].beta!r}], "
        f"got {float(grid[~inside][0])!r}"))
    lam = grid / beta
    (count, nodes), values = lam.shape, np.zeros(lam.shape)
    for k in range(len(_matched(fams))):
        b = _stacked_block(fams, k)
        n = b.levels.shape[-1]
        lp = b.log_populations.reshape(-1, n)
        s_abs2 = np.abs(b.s_eig.reshape(-1, n, n)) ** 2
        s_abs2[:, range(n), range(n)] = 0.0
        per = max(1, _G_CHUNK_ELEMENTS // max(1, nodes * n * n))
        step = nodes if per > 1 else max(1, _G_CHUNK_ELEMENTS // (n * n))
        for f, lo in itertools.product(range(0, count, per), range(0, nodes, step)):
            at, x = slice(f, f + per), lam[f : f + per, lo : lo + step, None, None]
            w = np.exp((1.0 - x) * lp[at, None, :, None] + x * lp[at, None, None, :])
            w *= s_abs2[at, None]
            values[at, lo : lo + step] += b.copies * np.sum(w, axis=(-2, -1))
    values += s_variance
    return values if not alone else float(values[0, 0]) if taus.ndim == 0 else values[0]
