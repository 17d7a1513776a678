"""Thermodynamic bounds sandwiching the fidelity susceptibility.

The Bogoliubov-Duhamel inner product (dS; dS) of the zero-mean
perturbation controls chi_F from both sides: (beta^2/4)(dS; dS) is an
upper bound, and subtracting (beta^3/48) <[[S, T], S]> gives a lower
bound.  Both are static thermal expectations, cheap along a sweep, and
they tie chi_F to the thermodynamic susceptibility beta (dS; dS)/N.

Every quantity is a sum over the in-block pairs of the T-eigenbasis with
populations kept in log space, as in the fidelity module.  Each sum has
an independent cross-check (a quadrature for the inner product, a
commutator expectation for the curvature term, a finite difference of
<S>_h for chi_N), and the checks raise rather than warn, because a
silently wrong bound would invalidate every sandwich test downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DCOMM_AGREEMENT_REL, DCOMM_NEGATIVE, FD_ORACLE_REL, SANDWICH_SLACK
from .errors import CrossCheckError, check_agreement
from .fidelity import (
    _gauss_legendre_64,
    _half_circle_G,
    _pair_sums,
    chi_f_spectral,
    chi_fg_spectral,
    ds2_spectral,
)
from .gibbs import (
    Block,
    PerturbedFamily,
    _diagonal,
    _displaced_spectra,
    _log_weights,
    _memoized,
    _weigh,
)
from .linalg import svd_checked

__all__ = [
    "BoundReport",
    "bd_inner_product",
    "bd_integral_oracle",
    "bound_report",
    "double_commutator",
    "double_commutator_direct",
    "free_energy_curvature",
]


def bd_inner_product(fam: PerturbedFamily) -> float:
    """Bogoliubov-Duhamel inner product (dS; dS) of the perturbation.

    Spectral form: (1/2) sum over ordered pairs m != n of
    (p_n - p_m)/X_mn |S_nm|^2 plus the population variance of the
    diagonal of S, with X_mn = beta(T_m - T_n)/2.  The pair ratio is the
    same kernel that appears inside chi_F, so both bounds and the
    susceptibility are built from one audited code path.
    """
    return 0.5 * _pair_sums(fam).bd + fam.s_variance


def bd_integral_oracle(fam: PerturbedFamily) -> float:
    """(dS; dS) from its defining imaginary-time integral.

    The average of G(tau) = <dS(tau) dS> over the thermal circle is, by
    KMS, its average over [0, beta/2]: 0.5 sum_i w_i G(tau_i) on the
    64-node Gauss-Legendre grid `chi_fg_integral` reads too.  G is entire
    in tau, so the rule converges geometrically, far past machine
    precision for any bounded spectrum.  This independent route audits
    `bd_inner_product`; it shares no kernel code with it.
    """
    _, w = _gauss_legendre_64()
    return 0.5 * float(np.dot(w, _half_circle_G(fam)[1]))


def double_commutator(fam: PerturbedFamily) -> float:
    """Thermal expectation <[[S, T], S]>, the lower-bound curvature term.

    Computed two ways and returned only after they agree:

    * spectral: sum over pairs of (p_n - p_m)(T_m - T_n) |S_nm|^2, as
      p_low (1 - e^{-beta|gap|}) |gap| |S|^2 with every factor bounded
      and nonnegative, smooth through its degenerate limit 0;
    * direct: the thermal average of K S - S K with K = [S, T], where
      K_mn = S_mn (T_n - T_m) in the eigenbasis.

    The spectral value is returned.  Both routes must be nonnegative up
    to rounding, or the lower bound would cross above the upper one.

    Raises
    ------
    CrossCheckError
        check "dcomm_forms" if the routes disagree beyond
        ``DCOMM_AGREEMENT_REL``, check "dcomm_negative" if either
        route is negative beyond rounding.
    """
    spectral = _pair_sums(fam).dcomm

    direct = double_commutator_direct(fam)
    if not (spectral >= -DCOMM_NEGATIVE and direct >= -DCOMM_NEGATIVE):
        raise CrossCheckError(
            "dcomm_negative",
            f"double commutator negative: spectral {float(spectral)!r}, "
            f"direct {float(direct)!r}",
        )
    check_agreement(
        "dcomm_forms", spectral, direct, DCOMM_AGREEMENT_REL,
        ("spectral form", "commutator form"),
    )
    return spectral


@_memoized
def double_commutator_direct(fam: PerturbedFamily) -> float:
    """<[[S, T], S]> as an explicit commutator expectation.

    Exposed separately so callers probing truncated models (where the
    spectral sum and the commutator route can legitimately differ at the
    cutoff boundary) can evaluate this route on its own.

    S and K = [S, T] are block diagonal, so K S - S K is formed by matrix
    products one block at a time (`_commutator_diagonal`), checked for
    Hermiticity and reduced to its diagonal by the routine
    `thermal_average` runs on each of its blocks.  The diagonals do not
    depend on beta: they are kept in ``fam.shared``, so every
    `family_at_beta` of the family only weighs them by its populations,
    and the value is kept in ``fam.memo``, so a report's route is read
    back, not weighed again.
    """
    diagonals = fam.shared.get("double_commutator")
    if diagonals is None:
        diagonals = fam.shared["double_commutator"] = [
            _commutator_diagonal(b) for b in fam.blocks
        ]
    return _weigh(zip(fam.blocks, diagonals))


def _commutator_diagonal(b: Block) -> tuple:
    """The checked diagonal (`gibbs._diagonal`) of K S - S K in one block,
    K_mn = S_mn (T_n - T_m) in its eigenbasis.

    A whole block takes the two n_b x n_b products.  In a block with
    sectors S and K link the sectors only, so K S - S K has no entry
    between them; with R = S[first, second] and K's rectangles
    K_12 = K[first, second] and K_21 = K[second, first], its two square
    blocks are K_12 R^H - R K_21 and K_21 R - R^H K_12, four rectangular
    products.
    """
    ev = b.levels
    if b.sectors is None:
        s = b.s_pairs
        k = s * (ev[None, :] - ev[:, None])
        parts = [k @ s - s @ k]
    else:
        rows, cols = b.sectors
        r = b.s_pairs
        rh = r.conj().T
        k12 = r * (ev[cols][None, :] - ev[rows][:, None])
        k21 = rh * (ev[rows][None, :] - ev[cols][:, None])
        parts = [k12 @ rh - r @ k21, k21 @ r - rh @ k12]
    re, im, scale = _diagonal(parts, b.sectors, "double commutator is not Hermitian")
    # copies, so that fam.shared does not keep a whole block's product alive
    return re.copy(), None if im is None else im.copy(), scale


# h_0 sigma(S) of the chi_N oracle's step ladder: rung k differences at
# h_k = _FD_LADDER 2^-k / sigma(S) and at h_k / 2 = h_(k+1)
_FD_LADDER = 3e-2


# the free-fermion <S>_h is kept while its terms cancel by at most this
# factor, sum_k |term_k| <= _ONE_BODY_CANCELLATION |<S>_h|
_ONE_BODY_CANCELLATION = 10.0


def _displaced(fam: PerturbedFamily, h: float) -> list:
    """Per block, the ascending levels of T_b - h S_b and the diagonal of
    S_b in their eigenbasis.

    Both are beta independent, so they are kept in ``fam.shared``, which
    every `family_at_beta` of the family holds too; the bases of
    `_displaced_spectra` are dropped block by block.  This diagonal
    reads S_b as the block stores it: where S_b links two sectors only,
    it is 2 Re sum_(m, n) U*_mj S_mn U_nj over the rectangle between
    them, a quarter of the products.
    """
    hit = fam.shared.get(h)
    if hit is None:
        hit = fam.shared[h] = []
        for b, (w, u) in zip(fam.blocks, _displaced_spectra(fam, h)):
            if b.sectors is None:
                diag = np.einsum("ij,ij->j", u.conj(), b.s_pairs @ u).real
            else:
                rows, cols = b.sectors
                su = b.s_pairs @ u[cols]
                diag = 2.0 * np.einsum("ij,ij->j", u[rows].conj(), su).real
            hit.append((w, diag))
    return hit


def _one_body_terms(fam: PerturbedFamily, h: float) -> np.ndarray:
    """The terms (ds_k/dh / 2) tanh(beta s_k / 2) of a ``quasi_free``
    family's <S>_h = -dF/dh, which cannot overflow at any beta.

    One `svd_checked` of M(h) = M(0) + 2 h I gives the quasiparticle
    energies s_k and, by Hellmann-Feynman, the slopes ds_k/dh / 2 =
    u_k . v_k; both are kept in ``fam.shared`` like `_displaced`.
    """
    key = ("one_body", h)
    hit = fam.shared.get(key)
    if hit is None:
        m = fam.quasi_free
        u, s, v = svd_checked(m + 2.0 * h * np.eye(m.shape[0]))
        hit = fam.shared[key] = (s, np.einsum("ik,ik->k", u, v))
    energies, slopes = hit
    return slopes * np.tanh(0.5 * fam.beta * energies)


def _mean_s(fam: PerturbedFamily, h: float) -> float:
    """<S>_h = sum_n p_n(h) (U_h^H S U_h)_nn at the family's beta, each
    block's levels weighted by its copies.

    A ``quasi_free`` family sums `_one_body_terms` instead, unless they
    cancel by more than ``_ONE_BODY_CANCELLATION``: near g = 0 the
    slopes of the nearly degenerate bulk modes are O(1) and sum to the
    O(h) of <S>_h, so the sum's rounding no longer cancels between +h
    and -h, while the block diagonals keep O(h) entries directly.
    """
    if fam.quasi_free is not None:
        terms = _one_body_terms(fam, h)
        mean = float(np.sum(terms))
        if float(np.sum(np.abs(terms))) <= _ONE_BODY_CANCELLATION * abs(mean):
            return mean
    solved = _displaced(fam, h)
    copies = [b.copies for b in fam.blocks]
    lps, _ = _log_weights([levels for levels, _ in solved], copies, fam.beta)
    return sum(
        c * float(np.dot(np.exp(lp), diag)) for c, lp, (_, diag) in zip(copies, lps, solved)
    )


def free_energy_curvature(fam: PerturbedFamily) -> float:
    """Measure -d^2f/dh^2 at h = 0 as the slope of <S>_h/N.

    f(h) = -ln Z(h)/(beta N) is the free energy density of the shifted
    Hamiltonian T - h S, and by Hellmann-Feynman -df/dh = <S>_h/N.  The
    value returned is the chi_N oracle of `bound_report`, independent of
    its chi_N = (beta/N) (dS; dS): it never touches the spectral pair
    sums, only <S>_h = sum_n p_n(h) (U_h^H S U_h)_nn at the displaced
    fields +-h_k/2 and +-h_k, combined as the Richardson-extrapolated
    first central difference (4 D(h_k/2) - D(h_k))/3 with
    D(h) = (<S>_h - <S>_{-h})/(2h).  Its rounding floor is about
    eps ||S|| / h, against eps |ln Z| / h^2 for a second difference of
    ln Z.  A ``quasi_free`` family (`tfim`) takes <S>_h from its free
    fermions instead, sum_k (ds_k/dh / 2) tanh(beta s_k / 2) from one
    SVD of the one-body matrix per field, and solves no block unless
    that sum cancels (see `_mean_s`).

    The step sits on a power-of-two ladder, h_k = 3e-2 2^-k / sigma(S)
    with k = ceil(log2 max(1, beta)) and
    sigma(S) = 2 max_b ||S_b - (tr S / n) I||_F over the blocks, copies
    left out (1 when that is 0).  The spectrum of S is the union of the
    blocks' spectra, each within ||S_b - (tr S / n) I||_2 of the mean, so
    sigma(S) is an O(sum_b n_b^2) bound on its spread that needs no
    eigensolve, ignores a multiple of the identity added to S and does
    not grow with the number of blocks or copies; for one block it is
    2 ||S - (tr S / n) I||_F.  It does not depend on beta, so it is kept
    in ``fam.shared`` with the solves.  Neighbouring rungs share a
    field, h_k / 2 = h_(k+1), and each solve keeps only what `_mean_s`
    weights (see `_displaced`), which is beta independent, so a sweep
    over beta solves each field once.  When every block has sectors
    (``sign_odd``), D = -1 on one sector of each maps T - h S to T + h S,
    so the two are similar, <S>_{-h} = -<S>_h, and only the two fields
    +h_k/2 and +h_k are solved.

    The truncation error goes as (beta sigma h)^4 at every beta, so on
    random complex families of dimension 4 to 40, beta from 1e-3 to 1e2,
    ||S|| from 1e-3 to 1e3 and T shifted by 0 or 100 I, the slope stays
    within 5e-10 of max(1, |chi_N|).  The floor grows with beta: once the
    step no longer resolves <S>_h (near beta = 1e8 for O(1) spectra) the
    slope misses chi_N beyond ``FD_ORACLE_REL`` and the report's check
    fails; there the free-fermion and the per-block <S>_h each pass
    some chains the other fails.

    Raises
    ------
    CrossCheckError
        check "chi_n_oracle" if the smaller step h_(k+1) underflows to 0,
        which needs beta sigma(S) above about 3e321.
    """
    spread = fam.shared.get("spread")
    if spread is None:
        # a block with sectors has a zero diagonal and S_b on its
        # rectangle R, so its trace is 0 and ||S_b - mean I||_F^2 is
        # 2 ||R||_F^2 + n_b mean^2
        whole = [b for b in fam.blocks if b.sectors is None]
        mean = sum(b.copies * np.trace(b.s_pairs).real for b in whole) / fam.dim

        def centred(b) -> float:
            if b.sectors is None:
                return float(np.linalg.norm(b.s_pairs - mean * np.eye(b.levels.size)))
            rect = float(np.linalg.norm(b.s_pairs))
            return math.hypot(math.sqrt(2.0) * rect, math.sqrt(b.levels.size) * mean)

        spread = fam.shared["spread"] = 2.0 * max(map(centred, fam.blocks))
    top = _FD_LADDER / (spread if spread > 0.0 else 1.0)
    k = math.ceil(math.log2(max(1.0, fam.beta)))
    if math.ldexp(top, -k - 1) == 0.0:
        raise CrossCheckError(
            "chi_n_oracle",
            f"the step {top!r} 2^-{k + 1} of the <S>_h slope underflows to 0",
        )

    def slope(rung: int) -> float:
        h = math.ldexp(top, -rung)
        up = _mean_s(fam, h)
        down = -up if fam.sign_odd else _mean_s(fam, -h)
        return (up - down) / (2.0 * h)

    return (4.0 * slope(k + 1) - slope(k)) / (3.0 * fam.particle_count)


@dataclass(frozen=True)
class BoundReport:
    """Everything the sandwich says about one family at one beta.

    ``lower_paper`` is the commutator-corrected lower bound (it may be
    negative, in which case zero is the binding constraint);
    ``lower_aasc`` is chi_F^G, which lower-bounds chi_F for free because
    the integrated kernel is pointwise smaller.  ``sandwich_ok`` records
    whether max(lower_paper, lower_aasc, 0) <= chi_f <= upper held to
    within ``SANDWICH_SLACK`` (relative).  ``chi_n`` is per particle; the
    other susceptibilities and bounds are for the whole system, so divide
    them by ``particle_count`` for their values per particle.
    """

    beta: float
    particle_count: int
    bd_product: float
    dcomm: float
    upper: float
    lower_paper: float
    lower_aasc: float
    chi_f: float
    chi_f_classical: float
    chi_f_quantum: float
    chi_n: float
    ds2: float
    degenerate_pair_count: int
    sandwich_ok: bool


def bound_report(fam: PerturbedFamily, *, check_chi_n: bool = True) -> BoundReport:
    """Evaluate chi_F together with every bound and cross-check at once.

    One eigendecomposition (already inside ``fam``) serves all entries,
    and one (dS; dS) serves the upper bound and chi_N = (beta/N) (dS; dS),
    the static response of <S>/N to the field.  The only optional extra
    cost is the chi_N oracle: with ``check_chi_n`` (the default) chi_N
    must agree with `free_energy_curvature` within ``FD_ORACLE_REL``, or
    check "chi_n_oracle" raises `CrossCheckError`.
    """
    beta = fam.beta
    chi = chi_f_spectral(fam)
    bd = bd_inner_product(fam)
    dcomm = double_commutator(fam)
    upper = 0.25 * beta * beta * bd
    lower = upper - beta * beta * beta * dcomm / 48.0
    aasc = chi_fg_spectral(fam)
    ds2 = ds2_spectral(fam)
    chi_n = beta * bd / fam.particle_count
    if check_chi_n:
        check_agreement(
            "chi_n_oracle", chi_n, free_energy_curvature(fam), FD_ORACLE_REL,
            ("spectral chi_N", "the <S>_h/N finite difference"),
        )

    slack = SANDWICH_SLACK * max(1.0, abs(chi.total))
    ok = bool(
        max(lower, aasc, 0.0) - slack <= chi.total <= upper + slack
    )

    return BoundReport(
        beta=beta,
        particle_count=fam.particle_count,
        bd_product=bd,
        dcomm=dcomm,
        upper=upper,
        lower_paper=lower,
        lower_aasc=aasc,
        chi_f=chi.total,
        chi_f_classical=chi.classical,
        chi_f_quantum=chi.quantum,
        chi_n=chi_n,
        ds2=ds2,
        degenerate_pair_count=chi.degenerate_pair_count,
        sandwich_ok=ok,
    )
