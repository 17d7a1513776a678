"""Numerical thresholds of the library, fixed module constants.

Every validation threshold, warning threshold, degeneracy switch,
cross-check tolerance, bisection width and the dimension budget is a
named constant here, read by name where it is used.  They are not
options: no function takes a tolerance argument, so every report is
computed against the same thresholds.
"""

HERMITIAN_REL = 1e-12
"""Allowed asymmetry ``||M - M^H||_F`` relative to ``max(1, ||M||_F)``
for matrices that are claimed Hermitian."""

BASIS_UNITARITY = 1e-10
"""Allowed ``||B^H B - I||_F`` per unit dimension for the eigenbases
``eig_hermitian`` returns."""

EIG_RESIDUAL = 1e-10
"""Allowed ``||H B - B diag||_F`` relative to ``max(1, ||H||_F)`` for the
decompositions ``eig_hermitian`` returns, and ``||M V - U diag(s)||_F``
relative to ``max(1, ||M||_F)`` for those of ``svd_checked``."""

EIGENBASIS_HERMITIAN = 1e-10
"""Allowed largest ``|A_mn - conj(A_nm)|`` relative to ``max(1, ||A||_F)``
for operators in the eigenbasis of T: S after its rotation there, and
the operators passed to ``thermal_average``."""

THERMAL_AVERAGE_RESIDUE = 1e-12
"""Imaginary residue of ``thermal_average``, relative to
``max(1, ||A||_F)``, above which it warns."""

PSD_CLIP = 1e-12
"""Most negative eigenvalue tolerated when clipping a nominally positive
semidefinite matrix."""

DENSITY_TRACE = 1e-10
"""Allowed deviation of a density-matrix trace from one."""

DEGENERATE_GAP = 1e-7
"""Pairs with ``|beta * (T_m - T_n)|`` below this switch to the analytic
degenerate limit of the thermal kernels."""

DIMENSION_BUDGET = 4096
"""Largest matrix any builder forms: a dense family, and the largest block
of a block family and of its cutoff probe.  The whole space of a block
family is never assembled, so its dimension is unbounded."""

GROUND_STATE_GAP = 1e-10
"""Minimum spectral gap for the ground-state susceptibility formula."""

KERNEL_SERIES_CUTOFF = 1e-4
"""``tanh(x)/x`` switches to its Taylor series below this ``|x|``."""

CHI_INTERNAL_REL = 1e-8
"""Allowed relative disagreement between the two internal forms of the
fidelity susceptibility."""

DCOMM_AGREEMENT_REL = 1e-9
"""Allowed relative disagreement between the spectral and direct
double-commutator evaluations."""

DCOMM_NEGATIVE = 1e-12
"""Most negative value of either double-commutator evaluation accepted
as rounding (absolute)."""

QUADRATURE_AGREEMENT_REL = 1e-6
"""Allowed relative disagreement between chi_FG's spectral sum and the
quadrature of its imaginary-time integral of ``tau G(tau)``."""

FD_ORACLE_REL = 1e-6
"""Allowed relative disagreement against finite-difference oracles."""

SANDWICH_SLACK = 1e-10
"""Slack used when checking that the susceptibility sits between its
lower and upper bounds."""

DICKE_CUTOFF_SHIFT = 1e-4
"""Relative shift of chi_F, when the boson cutoff grows by four levels,
above which ``dicke`` warns that ``n_max`` is too small."""

KONDO_S3_MEAN = 1e-12
"""Allowed ``|<S_3>|`` in the rotational-invariance check of ``kondo_toy``."""

KONDO_S3_SQUARE = 1e-10
"""Allowed ``|<S_3^2> - s(s+1)/3|`` in the same check."""

BISECTION_WIDTH = 1e-12
"""Bisections stop once their bracket is this narrow: relative to
``max(1, hi)`` for the implicit Dicke Tc, absolute for the root of the
Roepstorff bracket, which lies in (0, 3)."""
