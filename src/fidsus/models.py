"""Model builders: closed-form, many-body, random, and file-defined families.

Each builder returns a `PerturbedFamily`.  Builders are pure given their
arguments (the random generator is seeded explicitly), and the Kondo and
Dicke builders check their own output before returning: rotational
invariance of the impurity averages, and the boson cutoff four levels up.

Conventions fixed here and relied on by the matrix-file round trip:

* tensor factors are ordered boson (x) spin for each Dicke block and
  fermion modes (x) impurity for the Kondo space;
* the Dicke full space is passed as one block per total spin j with its
  multiplicity, and the Ising chain as its two parity halves (see `dicke`
  and `tfim`), so no builder forms the matrix of the whole space;
* fermionic operators use the Jordan-Wigner chain over the mode list
  (k0 up, k0 down, k1 up, k1 down, ...), qubit |1> meaning occupied;
* the conduction spin density at the impurity site carries an explicit
  1/M normalization, M being the number of retained modes.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .config import (
    BISECTION_WIDTH,
    DICKE_CUTOFF_SHIFT,
    DIMENSION_BUDGET,
    KONDO_S3_MEAN,
    KONDO_S3_SQUARE,
)
from .errors import (
    CrossCheckError,
    CutoffConvergenceWarning,
    DimensionBudgetError,
    ModelParseError,
    ModelSchemaError,
    NoTransitionError,
)
from .fidelity import chi_f_spectral
from .gibbs import PerturbedFamily, block_family, make_family, thermal_average

__all__ = [
    "DickeTc",
    "KondoBoundRecord",
    "MODEL_KINDS",
    "ModelSpec",
    "SingleSpinClosedForms",
    "build_model",
    "dicke",
    "dicke_cutoff_shift",
    "dicke_tc",
    "kondo_roepstorff",
    "kondo_toy",
    "model_from_file",
    "random_pair",
    "single_spin",
    "single_spin_closed_forms",
    "tfim",
]


def _integer(name: str, value, error: type = ValueError) -> int:
    """``value`` as an int: ints and integral floats pass, and anything
    else, bools included, raises ``error``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def _typed(name: str, value, kind: type, error: type = ValueError):
    """``value`` read as a real number (``kind`` float) or a switch (bool):
    a real is any int or float but a bool, a switch only True or False,
    and anything else, strings included, raises ``error``."""
    if kind is bool and isinstance(value, bool):
        return value
    if kind is float and isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    wanted = "true or false" if kind is bool else "a real number"
    raise error(f"{name} must be {wanted}, got {value!r}")


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.diag([1.0, -1.0])


# ---------------------------------------------------------------------------
# single spin


def single_spin(h3: float) -> PerturbedFamily:
    """Single spin-1/2 in a field: T = -h3 sigma_z, S = sigma_x, beta = 1.

    The inverse temperature is absorbed into the dimensionless field h3,
    so the family is always built at beta = 1 and every closed form in
    `single_spin_closed_forms` can be compared literally.
    """
    h3 = float(h3)
    if not math.isfinite(h3):
        raise ValueError(f"h3 must be finite, got {h3!r}")
    return make_family(-h3 * _SZ, _SX, 1.0)


@dataclass(frozen=True)
class SingleSpinClosedForms:
    """Exact values for the single-spin family at field h3."""

    chi_f: float
    bd_product: float
    dcomm: float
    lower: float


def single_spin_closed_forms(h3: float) -> SingleSpinClosedForms:
    """Closed forms: chi_F, the BD product, the double commutator, and
    the lower bound, all as elementary functions of h3.

    At h3 = 0 the limits are 1/4, 1, 0, 1/4 respectively.
    """
    h3 = float(abs(h3))
    if h3 == 0.0:
        return SingleSpinClosedForms(chi_f=0.25, bd_product=1.0, dcomm=0.0, lower=0.25)
    th = math.tanh(h3)
    return SingleSpinClosedForms(
        chi_f=th * th / (4.0 * h3 * h3),
        bd_product=th / h3,
        dcomm=4.0 * h3 * th,
        lower=(th / (4.0 * h3)) * (1.0 - h3 * h3 / 3.0),
    )


# ---------------------------------------------------------------------------
# Dicke


def _boson_annihilator(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


def _spin_matrices(s2: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S1, S2, S3) for spin s = s2/2, m descending from +s."""
    s = 0.5 * s2
    m = s - np.arange(s2 + 1)
    s3 = np.diag(m).astype(complex)
    # S- |s, m> = sqrt(s(s+1) - m(m-1)) |s, m-1>
    lower = np.diag(np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] - 1.0)), -1).astype(complex)
    s1 = 0.5 * (lower + lower.conj().T)
    s2m = 0.5j * (lower - lower.conj().T)
    return s1, s2m, s3


def _spin_multiplicity(n_atoms: int, j2: int) -> int:
    """Copies d_j of spin j = j2/2 in N spin-1/2: C(N, N/2-j) - C(N, N/2-j-1)."""
    k = (n_atoms - j2) // 2
    return math.comb(n_atoms, k) - (math.comb(n_atoms, k - 1) if k else 0)


def _dicke_blocks(
    n_atoms: int, n_max: int, omega: float, eps: float, lam: float, symmetric_sector: bool
) -> Iterator[tuple]:
    """(T_j, S_j, d_j, even_j) of boson (x) spin-j for each total spin j,
    formed one at a time.  even_j marks the states of even parity
    (-1)^(n + j - m), n the boson number: T keeps it and S flips it."""
    a = _boson_annihilator(n_max)
    quad = a + a.T
    number = np.diagonal(a.T @ a)
    spins = [n_atoms] if symmetric_sector else range(n_atoms, -1, -2)
    for j2 in spins:
        jx, _, jz = (m.real for m in _spin_matrices(j2))
        # omega a*a + eps J_z is diagonal, and (a + a*) J_x has a zero diagonal
        t = (lam / math.sqrt(n_atoms)) * np.kron(quad, jx)
        t[np.diag_indices_from(t)] = np.add.outer(omega * number, eps * np.diagonal(jz)).ravel()
        s = np.kron(0.5 * math.sqrt(n_atoms) * quad, np.eye(j2 + 1))
        even = np.add.outer(np.arange(n_max + 1), np.arange(j2 + 1)).ravel() % 2 == 0
        yield t, s, _spin_multiplicity(n_atoms, j2), even


def dicke(
    n_atoms: int,
    n_max: int,
    omega: float,
    eps: float,
    lam: float,
    beta: float,
    symmetric_sector: bool = False,
) -> PerturbedFamily:
    """N two-level atoms coupled to one bosonic mode, truncated at n_max.

    T = omega a*a + eps J_z + lam N^{-1/2}(a + a*) J_x with collective
    spin operators J_alpha = (1/2) sum_i sigma_i^alpha, and the driving
    term is the field quadrature S = sqrt(N)(a* + a)/2.

    By default the atoms span their full 2^N space, which keeps the
    partition function honest for finite-size thermal averages.  T is
    collective, so that space is built from its total-spin sectors: one
    block per j = N/2, N/2 - 1, ... (down to 0 or 1/2), boson (x) spin-j
    in Fock (x) m order with m descending from +j, with its
    d_j = C(N, N/2 - j) - C(N, N/2 - j - 1) copies.  This is unitarily
    equivalent to the product space of N sites, so every reported
    quantity is the same.  ``symmetric_sector`` keeps only the block
    j = N/2, with one copy; that drops the lower-spin blocks from Z, so
    sector results are comparable with each other but not term-by-term
    with the full space.  The dimension budget bounds the largest block,
    (n_max + 1)(N + 1).

    Each block also declares its parity (-1)^(n + j - m), n the boson
    number: T keeps it and S flips it, so `block_family` solves each
    block as its two parity sectors and keeps only the rectangle of S
    between them, and the family is sign-odd.  The blocks are formed one
    at a time as they are solved.

    Every build is followed by a cutoff probe: the family is rebuilt at
    n_max + 4 and the relative shift in chi_F is measured, each family
    read through `chi_f_spectral`.  A shift above 1e-4 triggers
    `CutoffConvergenceWarning` (the probe is skipped with a warning if
    its largest block would exceed the budget).  The probe's pair sums
    of the built family stay with it for the report.
    """
    n_atoms = _integer("n_atoms", n_atoms)
    n_max = _integer("n_max", n_max)
    if n_atoms < 1:
        raise ValueError(f"need at least one atom, got {n_atoms}")
    if n_max < 2:
        raise ValueError(f"boson cutoff must be at least 2, got {n_max}")
    if not (omega > 0.0 and lam > 0.0 and beta > 0.0):
        raise ValueError("omega, lam, beta must all be positive")
    dim = (n_max + 1) * (n_atoms + 1)
    if dim > DIMENSION_BUDGET:
        raise DimensionBudgetError(
            f"block dimension {dim} exceeds budget {DIMENSION_BUDGET}"
        )
    blocks = _dicke_blocks(n_atoms, n_max, omega, eps, lam, symmetric_sector)
    fam = block_family(blocks, beta, particle_count=n_atoms)

    probe_dim = (n_max + 5) * (n_atoms + 1)
    if probe_dim > DIMENSION_BUDGET:
        warnings.warn(
            f"cutoff probe skipped: probe block dimension {probe_dim} exceeds budget",
            CutoffConvergenceWarning,
            stacklevel=2,
        )
        return fam
    shift = dicke_cutoff_shift(fam, n_atoms, n_max, omega, eps, lam, beta,
                               symmetric_sector)
    if shift > DICKE_CUTOFF_SHIFT:
        warnings.warn(
            f"chi_F shifts by {shift:.3e} relative when the boson cutoff grows "
            f"from {n_max} to {n_max + 4}; raise n_max",
            CutoffConvergenceWarning,
            stacklevel=2,
        )
    return fam


def dicke_cutoff_shift(
    fam: PerturbedFamily,
    n_atoms: int,
    n_max: int,
    omega: float,
    eps: float,
    lam: float,
    beta: float,
    symmetric_sector: bool = False,
) -> float:
    """Relative chi_F shift between the given family and n_max + 4.

    The wider family is built block by block, read for its
    `chi_f_spectral` (one pass of all six pair sums per block) and
    dropped before the pair sums of ``fam`` are formed.
    """
    wide = _dicke_blocks(n_atoms, n_max + 4, omega, eps, lam, symmetric_sector)
    chi_wide = chi_f_spectral(block_family(wide, beta, particle_count=n_atoms)).total
    chi = chi_f_spectral(fam).total
    return abs(chi - chi_wide) / max(1.0, abs(chi))


@dataclass(frozen=True)
class DickeTc:
    """Critical temperature of the atom-field model, two conventions.

    ``tc_closed_form`` is the printed expression
    (|eps|/2) tanh(|eps| omega / 4 lam^2); ``tc_implicit`` solves the
    standard implicit condition tanh(|eps|/(2 T_c)) = |eps| omega /
    (4 lam^2).  The two do not agree in general.  Neither is the
    transition of the model `dicke` builds.  Its saddle
    point diverges where lam^2 tanh(beta |eps| / 2) = omega |eps|, and
    the implicit condition above is that one with lam replaced by 2 lam:
    the two couplings differ by a factor of 2 in lam.  At omega = eps = lam = 1,
    ``tc_implicit`` gives beta_c = 0.511 while the built model is
    critical only at T = 0, so a finite-size peak of a `dicke` sweep is
    not to be read against these values.
    """

    tc_closed_form: float
    tc_implicit: Optional[float]


def dicke_tc(omega: float, eps: float, lam: float) -> DickeTc:
    """Both critical-temperature values for given couplings.

    Requires 4 lam^2 / omega >= |eps| (the condition for a transition
    to exist at some temperature); at exact equality the implicit value
    is 0 (the transition sits at T = 0), and at eps = 0 it is the limit
    2 lam^2 / omega.

    Raises
    ------
    NoTransitionError
        If 4 lam^2 / omega < |eps|, where no transition occurs.
    """
    if not all(math.isfinite(x) for x in (omega, eps, lam)):
        raise ValueError(f"omega, eps and lam must be finite, got {(omega, eps, lam)!r}")
    if not (omega > 0.0 and lam > 0.0):
        raise ValueError("omega and lam must be positive")
    ae = abs(float(eps))
    r = ae * omega / (4.0 * lam * lam)
    if r > 1.0:
        raise NoTransitionError(
            f"4 lam^2/omega = {4.0 * lam * lam / omega:g} < |eps| = {ae:g}: "
            "no transition at any temperature"
        )
    tc_closed = 0.5 * ae * math.tanh(r)
    if ae == 0.0:
        return DickeTc(tc_closed_form=tc_closed, tc_implicit=2.0 * lam * lam / omega)
    if r == 1.0:
        return DickeTc(tc_closed_form=tc_closed, tc_implicit=0.0)

    def f(tc: float) -> float:
        return math.tanh(0.5 * ae / tc) - r

    # f decreases in tc from 1 - r > 0 toward -r < 0; bracket then bisect
    lo = 0.25 * ae
    while f(lo) < 0.0:
        lo *= 0.5
    hi = max(1.0, 4.0 * lam * lam / omega)
    while f(hi) > 0.0:
        hi *= 2.0
    while hi - lo > BISECTION_WIDTH * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return DickeTc(tc_closed_form=tc_closed, tc_implicit=0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Kondo


def _jw_annihilators(n_modes: int) -> List[np.ndarray]:
    """Jordan-Wigner annihilators for a chain of fermionic modes.

    Qubit |1> is occupied; mode j carries a Z string on all earlier
    modes, so anticommutation holds exactly.
    """
    z = np.diag([1.0, -1.0]).astype(complex)
    drop = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return [
        functools.reduce(np.kron, [z] * j + [drop] + [eye] * (n_modes - j - 1))
        for j in range(n_modes)
    ]


def kondo_toy(
    s2: int,
    mode_energies,
    j_coupling: float,
    beta: float,
) -> PerturbedFamily:
    """Magnetic impurity exchange-coupled to a few conduction modes.

    T = sum_k eps_k (n_{k up} + n_{k down})
        - J (S_1 n^x + S_2 n^y + S_3 n^z),

    where n^alpha = (1/M) sum_{k,k',sigma,sigma'} c*_{k sigma}
    (sigma^alpha/2)_{sigma sigma'} c_{k' sigma'} is the conduction spin
    density at the impurity site, M the number of modes (the 1/M is a
    declared convention: a finite mode set has no canonical continuum
    normalization).  S is the impurity component S_3.  The space is the
    Jordan-Wigner chain over k0 up, k0 down, k1 up, ... tensor the
    impurity spin s = s2/2, placed last.  The builder refuses a family
    that breaks <S_3> = 0 or <S_3^2> = s(s+1)/3.

    Raises
    ------
    DimensionBudgetError
        If (2s+1) 4^M exceeds the dimension budget.
    CrossCheckError
        check "kondo_rotation" if the invariance checks fail.
    """
    s2 = _integer("s2", s2)
    energies = [float(e) for e in mode_energies]
    n_modes = len(energies)
    if not 1 <= n_modes <= 3:
        raise ValueError(f"between 1 and 3 conduction modes supported, got {n_modes}")
    if s2 < 1:
        raise ValueError(f"s2 (twice the impurity spin) must be >= 1, got {s2}")
    fermion_dim = 4**n_modes
    dim = (s2 + 1) * fermion_dim
    if dim > DIMENSION_BUDGET:
        raise DimensionBudgetError(f"dimension {dim} exceeds budget {DIMENSION_BUDGET}")

    c = _jw_annihilators(2 * n_modes)  # order: k0 up, k0 down, k1 up, ...
    c_up = sum(c[2 * k] for k in range(n_modes))
    c_dn = sum(c[2 * k + 1] for k in range(n_modes))
    half = 1.0 / (2.0 * n_modes)
    # n^alpha = (1/M) C*_sigma (sigma^alpha/2)_{sigma sigma'} C_sigma'
    nx = half * (c_up.conj().T @ c_dn + c_dn.conj().T @ c_up)
    ny = half * (-1j * c_up.conj().T @ c_dn + 1j * c_dn.conj().T @ c_up)
    nz = half * (c_up.conj().T @ c_up - c_dn.conj().T @ c_dn)

    h0 = np.zeros((fermion_dim, fermion_dim), dtype=complex)
    for k, e in enumerate(energies):
        h0 += e * (
            c[2 * k].conj().T @ c[2 * k] + c[2 * k + 1].conj().T @ c[2 * k + 1]
        )

    s1, s2op, s3 = _spin_matrices(s2)
    eye_f = np.eye(fermion_dim, dtype=complex)
    eye_s = np.eye(s2 + 1, dtype=complex)
    T = (
        np.kron(h0, eye_s)
        - j_coupling * (np.kron(nx, s1) + np.kron(ny, s2op) + np.kron(nz, s3))
    )
    S = np.kron(eye_f, s3)
    fam = make_family(T, S, beta)

    spin = 0.5 * s2
    casimir_third = spin * (spin + 1.0) / 3.0
    mean = thermal_average(fam, [b.s_eig for b in fam.blocks])
    second = thermal_average(fam, [b.s_eig @ b.s_eig for b in fam.blocks])
    if abs(mean) > KONDO_S3_MEAN or abs(second - casimir_third) > KONDO_S3_SQUARE:
        raise CrossCheckError(
            "kondo_rotation",
            f"rotational invariance violated: <S3> = {float(mean)!r}, "
            f"<S3^2> = {float(second)!r} vs s(s+1)/3 = {float(casimir_third)!r}",
        )
    return fam


@dataclass(frozen=True)
class KondoBoundRecord:
    """Closed-form envelope for (4/beta) chi_F of the impurity model.

    chi_c is the Curie susceptibility beta s(s+1)/3 of the free spin;
    beta_eps is the dimensionless combination beta J tanh(beta J) /
    (2 s(s+1)); and the bracket [ (1-e^{-beta_eps})/beta_eps -
    beta_eps/3 ], clipped at zero, scales chi_c into the lower edge.
    x_star is the positive root of the bracket, so lower = 0 exactly
    when beta_eps >= x_star.  upper is chi_c itself.
    """

    chi_c: float
    beta_eps: float
    lower: float
    upper: float
    x_star: float


def _bracket(x: float) -> float:
    """(1 - e^{-x})/x - x/3, with the x -> 0 limit 1."""
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x - x / 3.0


def kondo_roepstorff(beta: float, j_coupling: float, s2: int) -> KondoBoundRecord:
    """Bounds on (4/beta) chi_F from the Roepstorff inequalities.

    Purely arithmetic; no Hilbert space is built.  The envelope holds
    for the model with a free conduction band, so against the few-mode
    toy builder it is evaluated and reported rather than asserted.
    """
    if not (math.isfinite(beta) and math.isfinite(j_coupling)):
        raise ValueError(f"beta and j must be finite, got {(beta, j_coupling)!r}")
    if not (beta > 0.0 and j_coupling > 0.0):
        raise ValueError("beta and the exchange coupling must be positive")
    s2 = _integer("s2", s2)
    if s2 < 1:
        raise ValueError(f"s2 must be >= 1, got {s2}")
    s = 0.5 * s2
    casimir = s * (s + 1.0)
    chi_c = beta * casimir / 3.0
    bj = beta * j_coupling
    beta_eps = bj * math.tanh(bj) / (2.0 * casimir)

    lo, hi = 1e-12, 3.0
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if _bracket(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)

    lower = chi_c * max(0.0, _bracket(beta_eps))
    return KondoBoundRecord(
        chi_c=chi_c, beta_eps=beta_eps, lower=lower, upper=chi_c, x_star=x_star
    )


# ---------------------------------------------------------------------------
# random and lattice testbeds


def random_pair(
    dim: int,
    seed: int,
    t_scale: float = 1.0,
    s_scale: float = 1.0,
    beta: float = 1.0,
) -> PerturbedFamily:
    """GUE-style random (T, S) pair, deterministic per (seed, dim).

    T is drawn first, then S: each is a complex Gaussian matrix
    symmetrized as (G + G*)/2 and scaled.  Changing either scale to 0
    gives the corresponding zero operator.
    """
    return make_family(*_random_operators(dim, seed, t_scale, s_scale), beta)


def _random_operators(dim: int, seed: int, t_scale: float = 1.0, s_scale: float = 1.0) -> tuple:
    """The arrays (T, S) of `random_pair`, which ``verify`` stacks by
    dimension for `gibbs.make_families`."""
    dim = _integer("dim", dim)
    if not 2 <= dim <= 64:
        raise ValueError(f"dim must be between 2 and 64, got {dim}")
    rng = np.random.default_rng(_integer("seed", seed))

    def draw(scale: float) -> np.ndarray:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return scale * 0.5 * (g + g.conj().T)

    T = draw(float(t_scale))
    S = draw(float(s_scale))
    return T, S


def tfim(
    n_sites: int,
    j_coupling: float,
    g_field: float,
    beta: float,
) -> PerturbedFamily:
    """Open transverse-field Ising chain driven by the total transverse field.

    T = -J sum_i sigma^z_i sigma^z_{i+1} - g sum_i sigma^x_i on an open
    chain, S = sum_i sigma^x_i, so the field h shifts g directly.
    N = n_sites.

    The basis is the eigenbasis of the spin flip prod_i sigma^x_i:
    index r < 2^(N-1) of the even block is (|r> + |~r>)/sqrt(2), and of
    the odd block (|r> - |~r>)/sqrt(2).  Here bit i of r is site i
    (0 meaning sigma^z = +1), r runs over the states whose top bit
    (site N-1) is 0, and ~r flips every bit.  Both T and S commute with
    the flip, so the family is built from the two blocks, even first;
    every entry is an integer times J or g, and at g = 0 T is diagonal
    and S has a zero diagonal.

    The chain is also free fermions (Lieb, Schultz & Mattis, Ann. Phys.
    16, 407 (1961)): with Jordan-Wigner and sigma^x_i = 1 - 2 n_i, and no
    boundary term on the open chain, T - h S = sum_k s_k
    (eta_k^dag eta_k - 1/2) exactly, s_k the singular values of the
    N x N bidiagonal M(h) = 2 (g + h) I - 2 J L^T, L having ones on the
    first subdiagonal.  The family keeps M(0) as its ``quasi_free``
    matrix, from which the chi_N oracle takes <S>_h (see
    `bounds._mean_s`); M is passed upper bidiagonal so that its SVD
    keeps the edge mode's small s_k to high relative accuracy.
    """
    n_sites = _integer("n_sites", n_sites)
    if not 2 <= n_sites <= 10:
        raise ValueError(f"n_sites must be between 2 and 10, got {n_sites}")

    half = 2 ** (n_sites - 1)
    r = np.arange(half)
    bits = (r[:, None] >> np.arange(n_sites)) & 1
    # sigma^z_i sigma^z_{i+1} is +1 where neighbouring bits agree, on r and ~r alike
    agree = np.count_nonzero(bits[:, 1:] == bits[:, :-1], axis=1)
    zz = (2 * agree - (n_sites - 1)).astype(float)
    blocks = []
    for sign in (1.0, -1.0):
        S = np.zeros((half, half))
        for i in range(n_sites - 1):
            S[r, r ^ (1 << i)] += 1.0
        # sigma^x_{N-1} takes |r> + s|~r> to s(|r'> + s|~r'>), r' = r ^ (half - 1)
        S[r, r ^ (half - 1)] += sign
        blocks.append((np.diag(-j_coupling * zz) - g_field * S, S, 1))
    one_body = 2.0 * g_field * np.eye(n_sites) - 2.0 * j_coupling * np.eye(n_sites, k=1)
    return block_family(blocks, beta, particle_count=n_sites, quasi_free=one_body)


# ---------------------------------------------------------------------------
# matrix files


def _require_entry(value, path: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ModelSchemaError(f"{path}: expected an [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _parse_matrix(obj, name: str, dim: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ModelSchemaError(f'"{name}" must be a {dim}x{dim} array of [re, im] pairs')
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ModelSchemaError(f'"{name}" row {i} must have {dim} entries')
        for k, cell in enumerate(row):
            out[i, k] = _require_entry(cell, f'"{name}"[{i}][{k}]')
    return out


def _strict_json(path):
    """Parse a UTF-8 JSON file; bad syntax and NaN/Infinity raise ModelParseError."""

    def no_constants(name: str):
        raise ModelParseError(f"{path}: non-finite literal {name!r} not allowed")

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=no_constants)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"{path}: {exc}") from None


def model_from_file(path) -> PerturbedFamily:
    """Build a family from a matrix file.

    The file is a UTF-8 text file holding exactly one JSON object with
    keys "dim" (integer), "beta" (real), optional "N" (integer, default
    1), and "T" and "S" as dim x dim arrays of [re, im] pairs.  Trailing
    content, NaN/Inf literals, unknown keys, and malformed entries are
    all rejected; Hermiticity is enforced by the family constructor.
    """
    obj = _strict_json(path)
    if not isinstance(obj, dict):
        raise ModelSchemaError(f"{path}: top level must be one object")
    allowed = {"dim", "beta", "N", "T", "S"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ModelSchemaError(f"unknown keys {unknown}; allowed: {sorted(allowed)}")
    missing = sorted({"dim", "beta", "T", "S"} - set(obj))
    if missing:
        raise ModelSchemaError(f"missing required keys {missing}")

    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModelSchemaError(f'"dim" must be a positive integer, got {dim!r}')
    beta = obj["beta"]
    if isinstance(beta, bool) or not isinstance(beta, (int, float)):
        raise ModelSchemaError(f'"beta" must be a real number, got {beta!r}')
    n = obj.get("N", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ModelSchemaError(f'"N" must be a positive integer, got {n!r}')

    T = _parse_matrix(obj["T"], "T", dim)
    S = _parse_matrix(obj["S"], "S", dim)
    return make_family(T, S, float(beta), particle_count=n)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a family: kind plus parameter maps.

    ``parameters`` carries real-valued knobs and any on/off switches the
    kind declares (0 or 1), ``cutoffs`` integer ones (truncations, mode
    counts, sizes), ``seed`` feeds random kinds, and ``path`` points at a
    matrix file for kind "file".  Validation happens in `build_model`,
    which consults `MODEL_KINDS` for what each kind requires; only the
    declared real parameters can be swept.
    """

    kind: str
    parameters: Dict[str, float] = field(default_factory=dict)
    cutoffs: Dict[str, int] = field(default_factory=dict)
    seed: Optional[int] = None
    path: Optional[str] = None


MODEL_KINDS: Dict[str, Dict[str, object]] = {
    "single_spin": {
        "parameters": {"h3": None},
        "cutoffs": {},
        "doc": "one spin-1/2, T = -h3 sigma_z, S = sigma_x, beta fixed at 1",
    },
    "dicke": {
        "parameters": {"omega": None, "eps": None, "lambda": None, "beta": None},
        "cutoffs": {"n_atoms": None, "n_max": None},
        "switches": ("symmetric_sector",),
        "doc": "N atoms and one boson mode; driving term is the field quadrature",
    },
    "kondo_toy": {
        "parameters": {"j": None, "beta": None, "eps0": 0.0, "eps1": 0.0, "eps2": 0.0},
        "cutoffs": {"s2": None, "modes": None},
        "doc": "impurity spin s2/2 exchange-coupled to 1-3 conduction modes",
    },
    "random": {
        "parameters": {"beta": None, "t_scale": 1.0, "s_scale": 1.0},
        "cutoffs": {"dim": None},
        "doc": "seeded GUE-style (T, S) pair",
    },
    "tfim": {
        "parameters": {"j": None, "g": None, "beta": None},
        "cutoffs": {"n_sites": None},
        "doc": "open Ising chain in a transverse field, driven by total sigma_x",
    },
    "file": {
        "parameters": {},
        "cutoffs": {},
        "doc": "T, S, beta read from a matrix file (see model_from_file)",
    },
}


def _kind_entry(kind: str) -> Dict[str, object]:
    """The registry entry of a model kind, or a schema error naming the known kinds."""
    if kind not in MODEL_KINDS:
        raise ModelSchemaError(f"unknown model kind {kind!r}; known: {sorted(MODEL_KINDS)}")
    return MODEL_KINDS[kind]


def _collect(spec: ModelSpec, which: str) -> Dict[str, float]:
    """Merge declared defaults with the given values, rejecting strays."""
    declared = MODEL_KINDS[spec.kind][which]
    given = spec.parameters if which == "parameters" else spec.cutoffs
    switches = () if which == "cutoffs" else MODEL_KINDS[spec.kind].get("switches", ())
    unknown = sorted(set(given) - set(declared) - set(switches))
    if unknown:
        raise ModelSchemaError(
            f"kind {spec.kind!r} does not take {which} {unknown}; "
            f"declared: {sorted(declared)}"
        )
    merged = {}
    for name, default in declared.items():
        if name in given:
            merged[name] = given[name]
        elif default is not None:
            merged[name] = default
        else:
            raise ModelSchemaError(f"kind {spec.kind!r} requires {which[:-1]} {name!r}")
    return merged


def _switch(spec: ModelSpec, name: str) -> bool:
    value = spec.parameters.get(name, 0)
    if value not in (0, 1):
        raise ModelSchemaError(f"switch {name!r} must be 0 or 1, got {value!r}")
    return bool(value)


def build_model(spec: ModelSpec) -> PerturbedFamily:
    """Validate a `ModelSpec` and dispatch to the matching builder."""
    _kind_entry(spec.kind)
    params = _collect(spec, "parameters")
    cutoffs = _collect(spec, "cutoffs")
    if spec.kind == "file":
        if not spec.path:
            raise ModelSchemaError('kind "file" requires a path')
        return model_from_file(spec.path)

    for name, value in cutoffs.items():
        cutoffs[name] = _integer(f"cutoff {name!r}", value, ModelSchemaError)
        if cutoffs[name] < 1:
            raise ModelSchemaError(f"cutoff {name!r} must be >= 1, got {value!r}")

    if spec.kind == "single_spin":
        return single_spin(params["h3"])
    if spec.kind == "dicke":
        return dicke(
            cutoffs["n_atoms"],
            cutoffs["n_max"],
            params["omega"],
            params["eps"],
            params["lambda"],
            params["beta"],
            symmetric_sector=_switch(spec, "symmetric_sector"),
        )
    if spec.kind == "kondo_toy":
        modes = cutoffs["modes"]
        unused = sorted(n for n in spec.parameters if n[:3] == "eps" and int(n[3:]) >= modes)
        if unused:
            raise ModelSchemaError(f"kind 'kondo_toy' with {modes} modes does not take {unused}")
        energies = [params[f"eps{k}"] for k in range(modes)]
        return kondo_toy(cutoffs["s2"], energies, params["j"], params["beta"])
    if spec.kind == "random":
        seed = 0 if spec.seed is None else _integer("seed", spec.seed, ModelSchemaError)
        return random_pair(
            cutoffs["dim"], seed, params["t_scale"], params["s_scale"], params["beta"]
        )
    return tfim(cutoffs["n_sites"], params["j"], params["g"], params["beta"])
