"""End-to-end acceptance checks.

Every published invariant and its contract threshold lives in
``fidsus.verify``.  One seed-42 verify run serves the module; each test
asserts that verify's checks behind one guarantee passed and prints
their lines.  Only the atom-field cutoff has no verify equivalent and
measures its own margins.  Loosening a threshold is a behavior change,
not a test fix.
"""

import time

import numpy as np
import pytest

from fidsus.bounds import bound_report, double_commutator
from fidsus.gibbs import family_at_beta
from fidsus.models import ModelSpec, dicke, dicke_tc
from fidsus.sweep import SweepSpec, run_sweep
from fidsus.verify import run_verify

# verify's hard checks, grouped by the verify suite that runs them
HARD_CHECKS = (
    "kernel_bounds", "kernel_even",
    "sandwich", "ds2_equals_chi_f", "chi_fg_window", "chi_fg_below_chi_f",
    "chi_fg_quadrature", "bd_quadrature", "dcomm_two_forms", "nonnegativity",
    "chi_f_vs_fd", "chi_n_vs_curvature", "rho_prime_traceless",
    "rho_taylor_quadratic",
    "small_field_expansion", "ds2_vs_bures", "ground_state_limit",
    "commuting_saturation",
    "single_spin_closed_forms",
    "kondo_rotation_invariance", "kondo_sandwich", "kondo_weak_coupling_pinch",
    "dicke_sandwich", "dicke_tc_roots",
    "tfim_structure", "tfim_quasi_free",
    "model_file_contract",
    "deterministic_rebuild",
    "upper_gap_beta_scaling",
)


@pytest.fixture(scope="module")
def verified():
    """The seed-42 verify summary and the seconds it took."""
    t0 = time.perf_counter()
    summary = run_verify(seed=42, instances=1000, dim_max=12)
    return summary, time.perf_counter() - t0


def _criterion(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _checks_passed(verified, *names):
    """Print verify's line for each named check and assert they passed."""
    summary, _ = verified
    lines = {line.split(" ")[1]: line for line in summary.text.splitlines()[1:-1]}
    results = {r.name: r for r in summary.results}
    for name in names:
        print(lines[name])
    failed = [name for name in names if not results[name].passed]
    assert not failed, f"verify checks failed: {failed}"


def test_verify_reports_every_hard_check(verified):
    summary, elapsed = verified
    assert sorted(r.name for r in summary.results if r.hard) == sorted(HARD_CHECKS)
    _checks_passed(verified, *HARD_CHECKS)
    _criterion("verify_budget", elapsed < 30.0, f"elapsed={elapsed:.1f}s (<30s)")


def test_single_spin_closed_forms_sweep(verified):
    _checks_passed(verified, "single_spin_closed_forms")


def test_sandwich_on_thousand_random_families(verified):
    _checks_passed(verified, "sandwich", "nonnegativity")


def test_independent_oracles_agree(verified):
    _checks_passed(
        verified,
        "chi_f_vs_fd",
        "chi_n_vs_curvature",
        "bd_quadrature",
        "ground_state_limit",
    )


def test_cross_formula_identities_on_suite(verified):
    _checks_passed(
        verified,
        "ds2_equals_chi_f",
        "chi_fg_quadrature",
        "chi_fg_window",
        "chi_fg_below_chi_f",
        "dcomm_two_forms",
    )


def test_commuting_families_saturate_bounds(verified):
    _checks_passed(verified, "commuting_saturation")


def test_small_field_fidelity_expansion(verified):
    _checks_passed(
        verified,
        "small_field_expansion",
        "ds2_vs_bures",
        "rho_prime_traceless",
        "rho_taylor_quadratic",
    )


def test_impurity_grid_invariants_and_pinch(verified):
    _checks_passed(
        verified,
        "kondo_rotation_invariance",
        "kondo_sandwich",
        "kondo_curie_envelope",
        "kondo_weak_coupling_pinch",
    )


def test_atom_field_cutoff_and_curvature_gap():
    t0 = time.perf_counter()
    fam12 = dicke(4, 12, 1.0, 1.0, 1.0, 3.0)
    dc12 = double_commutator(fam12)
    fam16 = dicke(4, 16, 1.0, 1.0, 1.0, 3.0)
    dc16 = double_commutator(fam16)
    shift = abs(dc12 - dc16) / max(1.0, abs(dc16))
    n_omega = 4.0 * 1.0
    measured_c = dc12 / n_omega

    # sweep beta across the implicit transition temperature
    beta_c = 1.0 / dicke_tc(1.0, 1.0, 1.0).tc_implicit
    grid = np.linspace(0.1, 0.9, 17)
    crosses = grid[0] < beta_c < grid[-1]
    reports = [
        bound_report(family_at_beta(fam12, float(b)), check_chi_n=False)
        for b in grid
    ]
    chi_n = [r.chi_n for r in reports]
    k = int(np.argmax(chi_n))
    rep = reports[k]
    beta_star = float(grid[k])
    chi_pp = rep.chi_f / 4.0
    gap = abs(chi_pp - 0.25 * beta_star * rep.chi_n)
    budget = beta_star**2 * 1.0 * measured_c / 48.0
    exact_budget = beta_star**3 * rep.dcomm / (48.0 * 4.0)
    elapsed = time.perf_counter() - t0
    print(
        f"REPORT atom_field_constant: dcomm={dc12:.9f} vs N*omega={n_omega:g} "
        f"(ratio {measured_c:.6f})"
    )
    _criterion(
        "atom_field_cutoff_and_gap",
        shift <= 1e-6
        and crosses
        and gap <= budget
        and gap <= exact_budget
        and elapsed < 120.0,
        f"cutoff_shift={shift:.3e} (<=1e-6), beta_c={beta_c:.4f} inside "
        f"[{grid[0]:.1f},{grid[-1]:.1f}], chi_n max at beta={beta_star:.3f}, "
        f"gap={gap:.3e} <= budget={budget:.3e} and exact={exact_budget:.3e}, "
        f"elapsed={elapsed:.1f}s (<120s)",
    )


def test_kernel_envelope_and_switchover(verified):
    _checks_passed(verified, "kernel_bounds", "kernel_even")


def test_byte_for_byte_determinism(verified, tmp_path):
    first, _ = verified
    second = run_verify(seed=42, instances=1000, dim_max=12)
    spec = lambda path: SweepSpec(  # noqa: E731
        model=ModelSpec("random", {"beta": 0.5}, {"dim": 6}, seed=9),
        sweep_param="beta",
        start=0.5,
        stop=4.0,
        steps=12,
        csv_path=str(path),
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(spec(p1))
    run_sweep(spec(p2))
    same_csv = p1.read_bytes() == p2.read_bytes()
    _criterion(
        "byte_for_byte_determinism",
        first.passed and first.text == second.text and same_csv,
        f"verify_passed={first.passed}, verify_bytes_equal="
        f"{first.text == second.text}, sweep_bytes_equal={same_csv}",
    )
