"""chi_F and the thermodynamic susceptibility of the atom-field model.

`dicke_tc` gives two critical-temperature values (a printed closed form
and the root of an implicit gap equation).  Neither is the transition of
the model `dicke` builds: the implicit condition is the builder's
saddle-point condition lam^2 tanh(beta eps / 2) = omega eps with lam
replaced by 2 lam, and at omega = eps = lam = 1 the built model has no
finite-temperature root, so it is critical only at T = 0.  The beta sweep
below marks the row nearest 1/tc_implicit only as dicke_tc's
implicit-condition value; nothing of the swept model changes there.  What
the sweep does show is chi_f/N pinned to (beta/4) chi_n at every beta.

This builds a 208-dimensional space and diagonalizes it once, then
reuses the spectrum at each temperature, so the sweep itself is cheap.
"""

import numpy as np

from fidsus import bound_report, dicke, dicke_tc, double_commutator, family_at_beta

tc = dicke_tc(omega=1.0, eps=1.0, lam=1.0)
beta_implicit = 1.0 / tc.tc_implicit
print(f"tc_closed_form = {tc.tc_closed_form:.6f}")
print(f"tc_implicit    = {tc.tc_implicit:.6f}  (1/tc_implicit = {beta_implicit:.4f})")

fam = dicke(n_atoms=4, n_max=12, omega=1.0, eps=1.0, lam=1.0, beta=3.0)
dc = double_commutator(fam)
print(f"\ndouble commutator = {dc:.9f} (N*omega = 4, measured ratio {dc / 4.0:.6f})")

print(f"\n{'beta':>6} {'chi_n':>12} {'chi_f/N':>12} {'(beta/4)chi_n':>14} {'rel gap':>10}")
for beta in np.linspace(0.1, 0.9, 9):
    rep = bound_report(family_at_beta(fam, float(beta)), check_chi_n=False)
    chi_pp = rep.chi_f / 4.0
    curv = 0.25 * beta * rep.chi_n
    marker = "  <- 1/tc_implicit (dicke_tc)" if abs(beta - beta_implicit) < 0.06 else ""
    print(
        f"{beta:6.2f} {rep.chi_n:12.6f} {chi_pp:12.6f} {curv:14.6f} "
        f"{(curv - chi_pp) / chi_pp:10.2e}{marker}"
    )

print(
    "\nchi_f/N tracks (beta/4) chi_n from below; the gap never exceeds"
    "\nthe beta^3 * dcomm / 48 correction divided by N.  The built model"
    "\n(omega = eps = lam = 1) is critical only at T = 0, so the marked row"
    "\nis dicke_tc's implicit-condition value, not a transition of this sweep."
)
