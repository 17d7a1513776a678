"""Thermodynamic bounds sandwiching the fidelity susceptibility.

The Bogoliubov-Duhamel inner product (dS; dS) of the zero-mean
perturbation controls chi_F from both sides: (beta^2/4)(dS; dS) is an
upper bound, and subtracting (beta^3/48) <[[S, T], S]> gives a lower
bound.  Both are static thermal expectations, so they are cheap to
evaluate along a sweep and they tie chi_F to the ordinary thermodynamic
susceptibility beta (dS; dS)/N.

Every quantity here is computed in the eigenbasis of the unperturbed
Hamiltonian from populations kept in log space, mirroring the kernel
strategy of the fidelity module; see `bd_inner_product` for the shared
pair kernel.  Each nontrivial sum has an independent cross-check (an
integral quadrature for the inner product, a commutator expectation for
the curvature term, a free-energy finite difference for chi_N) and the
checks raise rather than warn, because a silently wrong bound would
invalidate every sandwich test downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DCOMM_AGREEMENT_REL, DCOMM_NEGATIVE, FD_ORACLE_REL, SANDWICH_SLACK
from .errors import CrossCheckError
from .fidelity import (
    _gauss_legendre_64,
    _perturbed_spectrum,
    chi_f_spectral,
    chi_fg_spectral,
    ds2_spectral,
)
from .gibbs import PerturbedFamily, correlation_G, thermal_average

__all__ = [
    "BoundReport",
    "PerParticleBounds",
    "bd_inner_product",
    "bd_integral_oracle",
    "bound_report",
    "double_commutator",
    "double_commutator_direct",
    "free_energy_curvature",
    "lower_bound",
    "thermo_susceptibility",
    "upper_bound",
]


def bd_inner_product(fam: PerturbedFamily) -> float:
    """Bogoliubov-Duhamel inner product (dS; dS) of the perturbation.

    Spectral form: (1/2) sum over ordered pairs m != n of
    (p_n - p_m)/X_mn |S_nm|^2 plus the population variance of the
    diagonal of S, with X_mn = beta(T_m - T_n)/2.  The pair ratio is the
    same kernel that appears inside chi_F, so both bounds and the
    susceptibility are built from one audited code path.
    """
    g = fam.pair_grid
    return 0.5 * float((g.ratio * g.s_abs2).sum()) + g.var_d


def bd_integral_oracle(fam: PerturbedFamily) -> float:
    """(dS; dS) from its defining imaginary-time integral.

    Gauss-Legendre quadrature of the two-point function G over
    lambda in [0, 1], i.e. the average of <dS(lambda beta) dS> along the
    thermal circle.  G is an entire function of lambda on a compact
    interval, so the quadrature converges geometrically and 64 nodes are
    far past machine precision for any bounded spectrum.  This is the
    independent route used to audit `bd_inner_product`; it shares no
    kernel code with it.
    """
    x, w = _gauss_legendre_64()
    lam = 0.5 * (x + 1.0)
    return 0.5 * float(np.dot(w, correlation_G(fam, lam * fam.beta)))


def double_commutator(fam: PerturbedFamily) -> float:
    """Thermal expectation <[[S, T], S]>, the lower-bound curvature term.

    Computed two ways and returned only after they agree:

    * spectral: sum over pairs of (p_n - p_m)(T_m - T_n) |S_nm|^2,
      evaluated as p_low (1 - e^{-beta|gap|}) |gap| |S|^2 so every factor
      is bounded and nonnegative; the degenerate limit is 0 and is
      reached smoothly, so no window switch is needed here;
    * direct: the thermal average of K S - S K with K = [S, T], formed
      elementwise in the eigenbasis where K_mn = S_mn (T_n - T_m).

    The spectral value is returned.  Both routes must be nonnegative up
    to rounding; a genuinely negative value would mean the lower bound
    crosses above the upper bound.

    Raises
    ------
    CrossCheckError
        check "dcomm_forms" if the routes disagree beyond
        ``DCOMM_AGREEMENT_REL``, check "dcomm_negative" if either
        route is negative beyond rounding.
    """
    g = fam.pair_grid
    spectral = float((g.p_low * (-np.expm1(-g.bgap)) * g.gap * g.s_abs2).sum())

    direct = double_commutator_direct(fam)
    if spectral < -DCOMM_NEGATIVE or direct < -DCOMM_NEGATIVE:
        raise CrossCheckError(
            "dcomm_negative",
            f"double commutator negative: spectral {float(spectral)!r}, "
            f"direct {float(direct)!r}",
        )
    if abs(spectral - direct) > DCOMM_AGREEMENT_REL * max(1.0, abs(spectral)):
        raise CrossCheckError(
            "dcomm_forms",
            f"spectral form {float(spectral)!r} and commutator form {float(direct)!r} disagree "
            f"beyond {DCOMM_AGREEMENT_REL:g} relative",
        )
    return spectral


def double_commutator_direct(fam: PerturbedFamily) -> float:
    """<[[S, T], S]> as an explicit commutator expectation.

    Exposed separately so callers probing truncated models (where the
    spectral sum and the commutator route can legitimately differ at the
    cutoff boundary) can evaluate this route on its own.
    """
    ev = fam.eigenvalues
    k = fam.s_eig * (ev[None, :] - ev[:, None])
    return thermal_average(fam, k @ fam.s_eig - fam.s_eig @ k)


def upper_bound(fam: PerturbedFamily) -> float:
    """Upper bound (beta^2/4)(dS; dS) on the fidelity susceptibility."""
    beta = fam.beta
    return 0.25 * beta * beta * bd_inner_product(fam)


def lower_bound(fam: PerturbedFamily) -> float:
    """Lower bound: the upper bound minus (beta^3/48) <[[S, T], S]>.

    Returned as computed, without clipping at zero: a negative value is
    still a valid (vacuous) lower bound, and callers comparing against
    chi_F apply max(lower, 0) themselves.
    """
    beta = fam.beta
    return upper_bound(fam) - beta * beta * beta * double_commutator(fam) / 48.0


# step of the chi_N oracle at beta <= 1; it shrinks as 1/sqrt(beta) above
_FD_STEP = 1e-3


def free_energy_curvature(fam: PerturbedFamily) -> float:
    """Measure -d^2f/dh^2 at h = 0 by Richardson-extrapolated differences.

    f(h) = -ln Z(h)/(beta N) is the free energy density of the shifted
    Hamiltonian T - h S.  The value returned is an independent oracle for
    ``thermo_susceptibility``: it never touches the spectral pair sums,
    only ln Z at four displaced fields, +-h/2 and +-h.  When the family
    is ``sign_odd``, a diagonal sign flip D maps the displaced matrix
    diag(T) - h S_eig to diag(T) + h S_eig entry for entry, in floating
    point too, so ln Z(-h) = ln Z(h) and only +h/2 and +h are solved:
    two eigendecompositions instead of four.  LAPACK may return the two
    similar matrices' spectra a few ulps apart, so the value can move by
    that rounding times 1/h^2, the floor the four-solve difference
    already has.  The step is
    ``1e-3 / sqrt(max(1, beta))``; see ``thermo_susceptibility`` for why.
    """
    beta = fam.beta
    n = fam.particle_count
    h_eff = _FD_STEP / math.sqrt(max(1.0, beta))
    f0 = -fam.log_z / (beta * n)

    def free_energy(h: float) -> float:
        _, _, log_z = _perturbed_spectrum(fam, h)
        return -log_z / (beta * n)

    def second_diff(h: float) -> float:
        f_plus = free_energy(h)
        f_minus = f_plus if fam.sign_odd else free_energy(-h)
        return (f_plus - 2.0 * f0 + f_minus) / (h * h)

    return -(4.0 * second_diff(0.5 * h_eff) - second_diff(h_eff)) / 3.0


def thermo_susceptibility(fam: PerturbedFamily, *, check: bool = True) -> float:
    """Thermodynamic susceptibility chi_N = (beta/N) (dS; dS).

    The static response of <S>/N to the field h, i.e. the second
    h-derivative of the free energy density with the sign flipped.  With
    ``check`` enabled (the default) that derivative is also measured
    directly by Richardson-extrapolated central differences of
    f(h) = -ln Z(h)/(beta N) and the two must agree; the finite
    difference costs four extra eigendecompositions, or two when the
    family is ``sign_odd`` and ln Z(h) is even.

    The step shrinks as 1/sqrt(beta) above beta = 1.  The floor on the
    second difference of ln Z is the absolute rounding of the computed
    eigenvalues, eps ||T||, amplified by 1/h^2, so steps much below 1e-3
    measure noise; the Richardson truncation term grows as (beta h)^4,
    so a fixed 1e-3 step loses accuracy at large beta.  The square-root
    schedule keeps both contributions near 1e-7 over the working range.

    Raises
    ------
    CrossCheckError
        check "chi_n_oracle" if the finite difference disagrees beyond
        ``FD_ORACLE_REL``.
    """
    beta = fam.beta
    n = fam.particle_count
    chi = beta * bd_inner_product(fam) / n
    if check:
        fd = free_energy_curvature(fam)
        if abs(chi - fd) > FD_ORACLE_REL * max(1.0, abs(chi)):
            raise CrossCheckError(
                "chi_n_oracle",
                f"spectral chi_N {float(chi)!r} and free-energy finite difference {float(fd)!r} "
                f"disagree beyond {FD_ORACLE_REL:g} relative",
            )
    return chi


@dataclass(frozen=True)
class PerParticleBounds:
    """Extensive report entries divided by the particle count."""

    chi_f: float
    upper: float
    lower_paper: float
    lower_aasc: float
    ds2: float
    bd_product: float
    dcomm: float


@dataclass(frozen=True)
class BoundReport:
    """Everything the sandwich says about one family at one beta.

    ``lower_paper`` is the commutator-corrected lower bound (it may be
    negative, in which case zero is the binding constraint);
    ``lower_aasc`` is chi_F^G, which lower-bounds chi_F for free because
    the integrated kernel is pointwise smaller.  ``sandwich_ok`` records
    whether max(lower_paper, lower_aasc, 0) <= chi_f <= upper held to
    within ``SANDWICH_SLACK`` (relative).  ``per_particle`` is populated when the
    family declares more than one particle.
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
    per_particle: Optional[PerParticleBounds] = None


def bound_report(fam: PerturbedFamily, *, check_chi_n: bool = True) -> BoundReport:
    """Evaluate chi_F together with every bound and cross-check at once.

    One eigendecomposition (already inside ``fam``) serves all entries;
    the only optional extra cost is the chi_N finite-difference oracle,
    forwarded through ``check_chi_n``.
    """
    beta = fam.beta
    chi = chi_f_spectral(fam)
    bd = bd_inner_product(fam)
    dcomm = double_commutator(fam)
    upper = 0.25 * beta * beta * bd
    lower = upper - beta * beta * beta * dcomm / 48.0
    aasc = chi_fg_spectral(fam)
    ds2 = ds2_spectral(fam)
    chi_n = thermo_susceptibility(fam, check=check_chi_n)

    slack = SANDWICH_SLACK * max(1.0, abs(chi.total))
    ok = bool(
        max(lower, aasc, 0.0) - slack <= chi.total <= upper + slack
    )

    n = fam.particle_count
    per = None
    if n > 1:
        per = PerParticleBounds(
            chi_f=chi.total / n,
            upper=upper / n,
            lower_paper=lower / n,
            lower_aasc=aasc / n,
            ds2=ds2 / n,
            bd_product=bd / n,
            dcomm=dcomm / n,
        )
    return BoundReport(
        beta=beta,
        particle_count=n,
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
        per_particle=per,
    )
