"""Central numerical tolerance settings.

Every tolerance used by the library lives in one frozen record so that a
single knob controls validation thresholds, degeneracy switches, and
internal consistency checks.  Functions accept an optional ``tols``
argument and fall back to :data:`DEFAULT_TOLS`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the library.

    Attributes
    ----------
    hermitian_rel : float
        Allowed asymmetry ``||M - M^H||_F`` relative to ``max(1, ||M||_F)``
        for matrices that are claimed Hermitian.
    basis_unitarity : float
        Allowed ``||B^H B - I||_F`` per unit dimension for the eigenbases
        ``eig_hermitian`` returns.
    eig_residual : float
        Allowed ``||H B - B diag||_F`` relative to ``max(1, ||H||_F)`` for
        the decompositions ``eig_hermitian`` returns.
    psd_clip : float
        Most negative eigenvalue tolerated when clipping a nominally
        positive semidefinite matrix.
    density_trace : float
        Allowed deviation of a density-matrix trace from one.
    degenerate_gap : float
        Pairs with ``|beta * (T_m - T_n)|`` below this switch to the
        analytic degenerate limit of the thermal kernels.
    ground_state_gap : float
        Minimum spectral gap for the ground-state susceptibility formula.
    kernel_series_cutoff : float
        ``tanh(x)/x`` switches to its Taylor series below this ``|x|``.
    chi_internal_rel : float
        Allowed relative disagreement between the two internal forms of
        the fidelity susceptibility.
    dcomm_agreement_rel : float
        Allowed relative disagreement between the spectral and direct
        double-commutator evaluations.
    quadrature_agreement_rel : float
        Allowed relative disagreement between closed-form and quadrature
        evaluations of the correlation integral.
    fd_oracle_rel : float
        Allowed relative disagreement against finite-difference oracles.
    sandwich_slack : float
        Slack used when checking that the susceptibility sits between its
        lower and upper bounds.
    """

    hermitian_rel: float = 1e-12
    basis_unitarity: float = 1e-10
    eig_residual: float = 1e-10
    psd_clip: float = 1e-12
    density_trace: float = 1e-10
    degenerate_gap: float = 1e-7
    ground_state_gap: float = 1e-10
    kernel_series_cutoff: float = 1e-4
    chi_internal_rel: float = 1e-8
    dcomm_agreement_rel: float = 1e-9
    quadrature_agreement_rel: float = 1e-6
    fd_oracle_rel: float = 1e-6
    sandwich_slack: float = 1e-10


DEFAULT_TOLS = Tolerances()
