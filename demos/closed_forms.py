"""One spin-1/2 in a tilted field: every quantity against its closed form.

The family is H(h) = -h3 sigma_z - h sigma_x at beta = 1, so chi_F, the
Bogoliubov-Duhamel product, the double commutator, and the lower bound
all reduce to elementary functions of h3.  This script prints the
computed values next to the formulas; the agreement is at machine
precision, which is the whole point of keeping this model around.
"""

import math

from fidsus import (
    bd_inner_product,
    bound_report,
    chi_f_spectral,
    double_commutator,
    single_spin,
)

print(f"{'h3':>5} {'chi_f':>22} {'closed form':>22} {'abs err':>10}")
for k in range(1, 11):
    h3 = 0.5 * k
    fam = single_spin(h3)
    chi = chi_f_spectral(fam).total
    exact = math.tanh(h3) ** 2 / (4.0 * h3 * h3)
    print(f"{h3:5.1f} {chi:22.17f} {exact:22.17f} {abs(chi - exact):10.1e}")

# the same story for the other three quantities, shown at one field value
h3 = 1.25
fam = single_spin(h3)
rep = bound_report(fam)
th = math.tanh(h3)
rows = [
    ("bd product", bd_inner_product(fam), th / h3),
    ("double commutator", double_commutator(fam), 4.0 * h3 * th),
    ("upper bound", rep.upper, th / (4.0 * h3)),
    ("lower bound", rep.lower_paper, (th / (4.0 * h3)) * (1.0 - h3 * h3 / 3.0)),
]
print(f"\nat h3 = {h3}:")
for name, got, want in rows:
    print(f"  {name:18s} {got:22.17f}  exact {want:22.17f}")

# note the lower bound crosses zero at h3 = sqrt(3); beyond that the
# binding constraint in the sandwich is simply chi_F >= 0
print(f"\nlower bound at h3 = 2.0: {bound_report(single_spin(2.0)).lower_paper:+.6f} (negative, clipped in reports)")
