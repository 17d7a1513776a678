"""Fidelity susceptibility of one-parameter Gibbs families, exactly.

For a family H(h) = T - h S at inverse temperature beta, this package
evaluates the thermal-state fidelity susceptibility chi_F at h = 0 from
the exact spectral representation, together with the quantities that
sandwich it: the Bogoliubov-Duhamel upper bound, the double-commutator
lower correction, the Green's-function variant chi_FG, and the ordinary
thermodynamic susceptibility chi_N.  Everything is cross-checked against
an independent second route (finite differences, quadratures, direct
commutators), and the checks raise instead of warning.

One type holds the thermal state: a `PerturbedFamily`, a tuple of
symmetry blocks with their copies, eigendecompositions and weights at
one beta, built by `block_family(blocks, beta)` or, from one dense pair,
`make_family(T, S, beta)`; the builders in `fidsus.models` use them.
`bound_report` evaluates one family completely, and the ``fidsus``
command line wraps reports, sweeps, and the verification suite.
"""

from .bounds import (
    BoundReport,
    bd_inner_product,
    bd_integral_oracle,
    bound_report,
    double_commutator,
    double_commutator_direct,
    free_energy_curvature,
)
from .fidelity import (
    FidelitySusceptibility,
    bures_distance,
    chi_f_fd,
    chi_f_ground_state,
    chi_f_spectral,
    chi_fg_integral,
    chi_fg_spectral,
    ds2_spectral,
    perturbed_density,
    rho_prime,
    uhlmann_fidelity,
)
from .gibbs import (
    Block,
    PerturbedFamily,
    block_family,
    correlation_G,
    family_at_beta,
    make_family,
    thermal_average,
)
from .kernels import tanh_over_x
from .models import (
    MODEL_KINDS,
    DickeTc,
    KondoBoundRecord,
    ModelSpec,
    SingleSpinClosedForms,
    build_model,
    dicke,
    dicke_cutoff_shift,
    dicke_tc,
    kondo_roepstorff,
    kondo_toy,
    model_from_file,
    random_pair,
    single_spin,
    single_spin_closed_forms,
    tfim,
)
from .sweep import SweepRow, SweepSpec, run_sweep
from .verify import VerifySummary, run_verify

__version__ = "1.0.0"

__all__ = [
    "Block",
    "BoundReport",
    "DickeTc",
    "FidelitySusceptibility",
    "KondoBoundRecord",
    "MODEL_KINDS",
    "ModelSpec",
    "PerturbedFamily",
    "SingleSpinClosedForms",
    "SweepRow",
    "SweepSpec",
    "VerifySummary",
    "bd_inner_product",
    "bd_integral_oracle",
    "block_family",
    "bound_report",
    "build_model",
    "bures_distance",
    "chi_f_fd",
    "chi_f_ground_state",
    "chi_f_spectral",
    "chi_fg_integral",
    "chi_fg_spectral",
    "correlation_G",
    "dicke",
    "dicke_cutoff_shift",
    "dicke_tc",
    "double_commutator",
    "double_commutator_direct",
    "ds2_spectral",
    "family_at_beta",
    "free_energy_curvature",
    "kondo_roepstorff",
    "kondo_toy",
    "make_family",
    "model_from_file",
    "perturbed_density",
    "random_pair",
    "rho_prime",
    "run_sweep",
    "run_verify",
    "single_spin",
    "single_spin_closed_forms",
    "tanh_over_x",
    "tfim",
    "thermal_average",
    "uhlmann_fidelity",
    "__version__",
]
