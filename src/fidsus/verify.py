"""Randomized self-verification: every invariant, one summary.

``run_verify`` executes the property suites of all modules against a
seeded stream of random families plus the closed-form models at pinned
parameters, and reports one PASS/FAIL line per invariant with the worst
slack observed.  Every "worst <= tol" check goes through one rule,
`_within`: it reduces the per-instance values with ``np.max``, so a NaN
anywhere fails the check, and prints the worst value and the tolerance
it was compared with.  REPORT lines carry measured values that are
informative but not asserted (the Curie-envelope inequalities at a
truncated mode count, the measured curvature constant of the driven
atom-field model).

The small-field expansion of the Uhlmann fidelity, the Bures route to
ds2 and the ground-state limit run on fixed families whatever the seed.
At their fixed steps and betas a seed-drawn family can miss them: the
remainder ratio can fall below 4, and beta = 1e4 need not be cold
enough for the ground-state limit.  The ground-state limit and the
finite-difference chi_F also run on fixed block families.

The random and oracle suites take their families in stacks of one
dimension (`_stacked_families`), each stack built with one stacked
eigensolve and weighed in one pass (`gibbs.make_families`, every member
solved whole), and its pair sums, G grids (random suite) and commutator
diagonals formed in one pass each.  A GUE draw has a nonzero imaginary
part and S a nonzero diagonal, so no sectors, and `models.random_pair`
solves it whole and complex too: every family is bit for bit the one it
builds alone.  Every check reduces its instances by max, min or sum, so
neither the stacks nor their order reach the text.

The summary is a pure function of (seed, instances, dim_max): no wall
times, no file paths, no machine-dependent formatting enter the text, so
two runs with the same arguments produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, replace
from typing import Callable, List

import numpy as np

from .bounds import (
    BoundReport,
    _commutators_over,
    _mean_s,
    _one_body_terms,
    bd_inner_product,
    bd_integral_oracle,
    bound_report,
    double_commutator_direct,
    free_energy_curvature,
)
from .config import DCOMM_AGREEMENT_REL, FD_ORACLE_REL
from .errors import (
    CutoffConvergenceWarning,
    ModelParseError,
    ModelSchemaError,
    NoTransitionError,
    NotHermitianError,
)
from .fidelity import (
    _half_circles_over,
    _pair_sums_over,
    bures_distance,
    chi_f_fd,
    chi_f_ground_state,
    chi_f_spectral,
    chi_fg_integral,
    ds2_spectral,
    perturbed_density,
    rho_prime,
    uhlmann_fidelity,
)
from .gibbs import family_at_beta, make_families, make_family, thermal_average
from .kernels import tanh_over_x
from .models import (
    _integer,
    _random_operators,
    dicke,
    dicke_tc,
    kondo_roepstorff,
    kondo_toy,
    model_from_file,
    random_pair,
    single_spin,
    single_spin_closed_forms,
    tfim,
)

__all__ = ["CheckResult", "VerifySummary", "run_verify"]


@dataclass(frozen=True)
class CheckResult:
    """One verified invariant: name, outcome, and worst-case numbers."""

    name: str
    passed: bool
    detail: str
    hard: bool = True


@dataclass(frozen=True)
class VerifySummary:
    """The rendered summary plus the structured results behind it."""

    text: str
    passed: bool
    results: List[CheckResult]


def _e(x: float) -> str:
    return format(float(x), ".3e")


def _seeds(seed: int, stream: int, count: int) -> List[int]:
    rng = np.random.default_rng([int(seed), int(stream)])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _within(values, tol: float, label: str = "worst", report: str = "", tail: str = ""):
    """The rule of every "worst <= tol" check: (passed, detail).

    ``np.max`` propagates a NaN among ``values``, and NaN <= tol is
    false, so a NaN in any instance fails the check.  The detail prints
    the two numbers compared, with report-only values between them and
    ``tail`` after.
    """
    worst = float(np.max(values))
    return worst <= tol, f"{label}={_e(worst)}{report} tol={tol:.1e}{tail}"


def _sandwich_violation(rep: BoundReport) -> List[float]:
    """How far chi_f lies outside [max(lb_paper, chi_fg, 0), ub], one value
    per bound; all <= 0 inside."""
    return [
        rep.lower_paper - rep.chi_f,
        rep.lower_aasc - rep.chi_f,
        -rep.chi_f,
        rep.chi_f - rep.upper,
    ]


# ---------------------------------------------------------------------------
# suites


# _suite_kernels's chunk of tanh_over_x arguments: 64 KiB temporaries
_KERNEL_CHUNK = 8192
# the random families built with one stacked eigensolve and whose pair sums
# are formed in one stacked pass: at dim 12 its (16, 12, 12) temporaries
# take 18-36 KiB each
_STACK = 16


def _stacked_families(fam_seeds, dims, betas, fills=()):
    """Every instance's random family, by ascending dimension in stacks of
    at most `_STACK`, each built by one `make_families` call and filled in
    one pass by each of ``fills`` (pair sums, G grids...) before yielding."""
    # grouped in Python: np.unique's first call faults in about 1 MiB,
    # which would raise verify's peak RSS by as much
    by_dim = {}
    for k, dim in enumerate(dims.tolist()):
        by_dim.setdefault(dim, []).append(k)
    for dim in sorted(by_dim):
        at = by_dim[dim]
        for lo in range(0, len(at), _STACK):
            stack = at[lo : lo + _STACK]
            pairs = [_random_operators(dim, fam_seeds[k]) for k in stack]
            fams = make_families(*map(np.stack, zip(*pairs)), betas[stack])
            for fill in fills:
                fill(fams)
            yield from fams


def _suite_kernels(seed, instances, dim_max, out):
    rng = np.random.default_rng([seed, 1])
    x = np.concatenate(
        [
            rng.uniform(-50.0, 50.0, 200000),
            rng.uniform(-1.0, 1.0, 50000),
            np.array([-50.0, -1e-4, 1e-4, 50.0]),
        ]
    )
    over, under, positive, even = [], [], True, []
    for lo in range(0, x.size, _KERNEL_CHUNK):
        xc = x[lo : lo + _KERNEL_CHUNK]
        f = tanh_over_x(xc)
        over.append(np.max(f - 1.0))
        under.append(np.max(np.maximum(1.0 - xc * xc / 3.0, 0.0) - f))
        positive = positive and bool(np.all(f > 0.0))
        a = np.abs(xc)
        even.append(np.max(np.abs(tanh_over_x(a) - tanh_over_x(-a))))
    over, under, even = (float(np.max(v)) for v in (over, under, even))
    # spread across the series/direct switchover at x = +-1e-4
    c = 1e-4
    edge = np.array([np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)])
    jump = float(np.max([np.ptp(tanh_over_x(sign * edge)) for sign in (1.0, -1.0)]))
    out.append(
        CheckResult(
            "kernel_bounds",
            positive and over <= 0.0 and under <= 0.0 and jump <= 1e-15,
            f"worst_over={_e(over)} worst_under={_e(under)} "
            f"switchover={_e(jump)} n={x.size}",
        )
    )
    out.append(CheckResult("kernel_even", even == 0.0, f"worst={_e(even)}"))


def _suite_random(seed, instances, dim_max, out):
    rng = np.random.default_rng([seed, 2])
    fam_seeds = _seeds(seed, 20, instances)
    dims = rng.integers(2, dim_max + 1, size=instances)
    betas = 10.0 ** rng.uniform(-1.0, 1.0, size=instances)

    sandwich, ds2, window, fg_le, fg_quad, bd_quad, dcomm, parts = ([] for _ in range(8))
    deg_total = 0
    fills = (_pair_sums_over, _half_circles_over, _commutators_over)
    for fam in _stacked_families(fam_seeds, dims, betas, fills):
        rep = bound_report(fam, check_chi_n=False)
        sandwich += _sandwich_violation(rep)
        ds2.append(abs(rep.ds2 - rep.chi_f) / max(rep.chi_f, 1e-300))
        window += [0.5 * rep.ds2 - rep.lower_aasc, rep.lower_aasc - rep.ds2]
        fg_le.append(rep.lower_aasc - rep.chi_f)
        fg_quad.append(abs(rep.lower_aasc - chi_fg_integral(fam)))
        bd_quad.append(abs(rep.bd_product - bd_integral_oracle(fam)))
        direct = double_commutator_direct(fam)
        dcomm.append(abs(rep.dcomm - direct) / max(1.0, abs(rep.dcomm)))
        parts += [
            rep.chi_f,
            rep.chi_f_classical,
            rep.chi_f_quantum,
            rep.bd_product,
            rep.upper,
            rep.dcomm + 1e-12,
        ]
        deg_total += rep.degenerate_pair_count

    tail = f" n={instances} deg_pairs={deg_total}"
    out += [
        CheckResult("sandwich", *_within(sandwich, 1e-10, "worst_slack", tail=tail)),
        CheckResult("ds2_equals_chi_f", *_within(ds2, 1e-10)),
        CheckResult("chi_fg_window", *_within(window, 1e-12)),
        CheckResult("chi_fg_below_chi_f", *_within(fg_le, 1e-12)),
        CheckResult("chi_fg_quadrature", *_within(fg_quad, 1e-8)),
        CheckResult("bd_quadrature", *_within(bd_quad, 1e-9)),
        CheckResult("dcomm_two_forms", *_within(dcomm, DCOMM_AGREEMENT_REL)),
    ]
    min_part = float(np.min(parts))
    out.append(
        CheckResult(
            "nonnegativity",
            min_part >= 0.0,
            f"min_part={_e(min_part)}",
        )
    )


def _suite_oracles(seed, instances, dim_max, out):
    count = min(int(instances), 100)
    rng = np.random.default_rng([seed, 3])
    fam_seeds = _seeds(seed, 30, count)
    dims = rng.integers(2, min(8, dim_max) + 1, size=count)
    betas = 10.0 ** rng.uniform(-1.0, 1.0, size=count)

    chi, miss, chi_n, trace = [], [], [], []
    for fam in _stacked_families(fam_seeds, dims, betas, (_pair_sums_over, _commutators_over)):
        rep = bound_report(fam, check_chi_n=False)
        chi.append(rep.chi_f)
        miss.append(abs(rep.chi_f - chi_f_fd(fam, 1e-3)))
        chi_n.append(abs(rep.chi_n - free_energy_curvature(fam)) / max(1.0, abs(rep.chi_n)))
        trace.append(abs(complex(np.trace(rho_prime(fam)[0]))))
    # chi_f_fd on block families too: three spin blocks with copies, two
    # parity blocks; it checks the built family, whatever its boson cutoff
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        for fam in (dicke(4, 6, 2.0, 1.0, 1.0, 1.0), tfim(6, 1.0, 1.0, 1.0)):
            chi.append(chi_f_spectral(fam).total)
            miss.append(abs(chi[-1] - chi_f_fd(fam, 1e-3)))
    chi, miss = np.array(chi), np.array(miss)
    fd_rel = f" worst_rel={_e(np.max(miss / np.maximum(np.abs(chi), 1e-300)))}"

    tail = f" n={count}"
    out += [
        CheckResult(
            "chi_f_vs_fd",
            *_within(miss / np.maximum(1.0, chi), 1e-6, report=fd_rel, tail=f" n={chi.size}"),
        ),
        CheckResult("chi_n_vs_curvature", *_within(chi_n, FD_ORACLE_REL, tail=tail)),
        CheckResult("rho_prime_traceless", *_within(trace, 1e-10, tail=tail)),
    ]


def _suite_taylor(seed, instances, dim_max, out):
    fam = random_pair(4, _seeds(seed, 40, 1)[0], beta=1.0)
    rho0 = np.diag(fam.blocks[0].populations).astype(complex)
    (rp,) = rho_prime(fam)
    h = 1e-2
    rho = {
        step: perturbed_density(fam, step)[0]
        for step in (h, -h, 0.5 * h, 0.25 * h, 0.125 * h, -0.125 * h)
    }

    def remainder(step: float) -> float:
        return float(np.linalg.norm(rho[step] - rho0 - step * rp))

    ratios = [remainder(step) / remainder(0.5 * step) for step in (h, 0.5 * h)]
    # the quadratic term dominates, so halving h divides the remainder by
    # 4 up to the next order, which can push the ratio a hair either way
    ok = all(r >= 3.9 for r in ratios)

    # rho(h) has unit trace at every h, so its first and second central
    # differences are traceless to their rounding floors
    trace1 = abs(complex(np.trace(rho[h] - rho[-h]))) / (2.0 * h)
    trace2 = abs(complex(np.trace(rho[h] - 2.0 * rho0 + rho[-h]))) / (h * h)
    # with rho'' from the differences at h/8, the remainder is third order:
    # its ratio to step^3 agrees at h and h/2
    href = 0.125 * h
    second = (rho[href] - 2.0 * rho0 + rho[-href]) / (href * href)

    def r3(step: float) -> float:
        rem = rho[step] - rho0 - step * rp - 0.5 * step * step * second
        return float(np.linalg.norm(rem)) / step**3

    drift = abs(r3(h) - r3(0.5 * h)) / r3(0.5 * h)
    parts = [
        _within([trace1], 1e-10, "trace_d1"),
        _within([trace2], 1e-8, "trace_d2"),
        _within([drift], 0.2, "r3_drift"),
    ]
    out.append(
        CheckResult(
            "rho_taylor_quadratic",
            ok and all(passed for passed, _ in parts),
            " ".join(
                [f"ratios={_e(ratios[0])},{_e(ratios[1])} min=3.9"]
                + [detail for _, detail in parts]
            ),
        )
    )


def _suite_limits(seed, instances, dim_max, out):
    fam = random_pair(4, 7, 1.0, 1.0, 1.0)
    chi = chi_f_spectral(fam).total
    rho0 = np.diag(fam.blocks[0].populations).astype(complex)
    # 1 - F = chi h^2 / 2 + O(h^3), so halving h divides the remainder by
    # about 8; under 4 it would still hold a piece of the h^2 term
    miss = [
        abs((1.0 - uhlmann_fidelity(rho0, perturbed_density(fam, h)[0])) - 0.5 * chi * h * h)
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    ratios = [miss[0] / miss[1], miss[1] / miss[2]]
    out.append(
        CheckResult(
            "small_field_expansion",
            all(r >= 4.0 for r in ratios),
            f"ratios={_e(ratios[0])},{_e(ratios[1])} min=4.0",
        )
    )

    fam = random_pair(5, 77, 1.0, 1.0, 1.2)
    h = 1e-3
    rho0 = np.diag(fam.blocks[0].populations).astype(complex)
    db2 = bures_distance(rho0, perturbed_density(fam, h)[0]) ** 2 / (h * h)
    ds2 = ds2_spectral(fam)
    out.append(CheckResult("ds2_vs_bures", *_within([abs(db2 - ds2) / abs(ds2)], 2e-3)))

    # a random pair, the chain's two parity blocks, and full-space Dicke
    # with the ground state in the spin-3/2 block and copies below it
    gaps = []
    for fam in (
        random_pair(5, 66, 1.0, 1.0, 1.0),
        tfim(4, 1.0, 1.3, 1.0),
        dicke(3, 8, 2.0, 1.0, 0.5, 1.0),
    ):
        gs = chi_f_ground_state(fam)
        for beta in (1e2, 1e4):
            gaps.append(abs(chi_f_spectral(family_at_beta(fam, beta)).total - gs) / abs(gs))
    out.append(
        CheckResult("ground_state_limit", *_within(gaps, 1e-10, tail=f" n={len(gaps)}"))
    )


def _suite_commuting(seed, instances, dim_max, out):
    rng = np.random.default_rng([seed, 4])
    count = 25
    gaps = []
    for _ in range(count):
        dim = int(rng.integers(2, dim_max + 1))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        v = np.linalg.qr(g)[0]
        t_diag = rng.normal(size=dim)
        s_diag = rng.normal(size=dim)
        beta = float(rng.uniform(0.2, 5.0))
        T = v @ np.diag(t_diag) @ v.conj().T
        S = v @ np.diag(s_diag) @ v.conj().T
        fam = make_family(0.5 * (T + T.conj().T), 0.5 * (S + S.conj().T), beta)
        rep = bound_report(fam, check_chi_n=False)
        (b,) = fam.blocks
        p = b.populations
        d = b.s_diagonal
        var = float(np.dot(p, (d - float(np.dot(p, d))) ** 2))
        ref = 0.25 * beta * beta * var
        norm = max(1.0, rep.chi_f)
        gaps += [
            abs(rep.upper - rep.chi_f) / norm,
            abs(rep.lower_paper - rep.chi_f) / norm,
            abs(rep.chi_f - ref) / norm,
            abs(rep.lower_aasc - 0.5 * rep.chi_f) / norm,
            abs(rep.dcomm),
        ]
    out.append(
        CheckResult("commuting_saturation", *_within(gaps, 1e-12, tail=f" n={count}"))
    )


def _suite_single_spin(seed, instances, dim_max, out):
    fields = [0.1 * k for k in range(1, 51)]
    gaps = []
    for h3 in fields:
        fam = single_spin(h3)
        ref = single_spin_closed_forms(h3)
        rep = bound_report(fam, check_chi_n=False)
        gaps += [
            abs(rep.chi_f - ref.chi_f),
            abs(rep.bd_product - ref.bd_product),
            abs(rep.dcomm - ref.dcomm),
            abs(rep.lower_paper - ref.lower),
        ]
    out.append(
        CheckResult(
            "single_spin_closed_forms", *_within(gaps, 1e-12, tail=f" n={len(fields)}")
        )
    )


def _suite_kondo(seed, instances, dim_max, out):
    rot1, rot2, sandwich = [], [], []
    envelope_hit = 0
    cap_hit = 0
    total = 0
    for beta in (0.5, 1.0, 2.0):
        for j in (0.25, 0.5, 1.0):
            fam = kondo_toy(1, (0.0, 0.5), j, beta)
            rep = bound_report(fam, check_chi_n=False)
            total += 1
            sandwich += _sandwich_violation(rep)
            (b,) = fam.blocks
            rot1.append(abs(thermal_average(fam, [b.s_eig])))
            rot2.append(abs(thermal_average(fam, [b.s_eig @ b.s_eig]) - 0.25))
            rec = kondo_roepstorff(beta, j, 1)
            chi4 = 4.0 * rep.chi_f / beta
            if rec.lower - 1e-9 <= chi4 <= rec.upper + 1e-9:
                envelope_hit += 1
            if rep.dcomm <= (2.0 / 3.0) * j * math.tanh(beta * j) + 1e-9:
                cap_hit += 1
    worst_rot1, worst_rot2 = float(np.max(rot1)), float(np.max(rot2))
    out.append(
        CheckResult(
            "kondo_rotation_invariance",
            worst_rot1 <= 1e-12 and worst_rot2 <= 1e-10,
            f"worst_s3={_e(worst_rot1)} worst_s3sq={_e(worst_rot2)} n={total}",
        )
    )
    out.append(
        CheckResult(
            "kondo_sandwich", *_within(sandwich, 1e-10, "worst_slack", tail=f" n={total}")
        )
    )
    out.append(
        CheckResult(
            "kondo_curie_envelope",
            True,
            f"chi4_in_envelope={envelope_hit}/{total} "
            f"dcomm_under_cap={cap_hit}/{total} (two conduction modes)",
            hard=False,
        )
    )

    rec = kondo_roepstorff(0.05, 0.5, 1)
    pinch = (rec.upper - rec.lower) / rec.upper
    ok = rec.beta_eps <= 1e-3 and pinch <= 2e-3
    xs_ref = 1.533929875528
    ok = ok and abs(rec.x_star - xs_ref) <= 1e-9
    out.append(
        CheckResult(
            "kondo_weak_coupling_pinch",
            ok,
            f"beta_eps={_e(rec.beta_eps)} gap={_e(pinch)} tol=2.0e-03 "
            f"x_star={format(rec.x_star, '.12f')}",
        )
    )


def _suite_dicke(seed, instances, dim_max, out):
    sandwich_fail = 0
    const = 0.0
    for beta in (1.0, 1.5, 2.0):
        fam = dicke(2, 16, 1.0, 1.0, 1.0, beta, symmetric_sector=True)
        rep = bound_report(fam, check_chi_n=False)
        if not rep.sandwich_ok:
            sandwich_fail += 1
        const = rep.dcomm / (2.0 * 1.0)
    out.append(
        CheckResult(
            "dicke_sandwich",
            sandwich_fail == 0,
            f"fails={sandwich_fail} n=3",
        )
    )
    out.append(
        CheckResult(
            "dicke_curvature_constant",
            True,
            f"dcomm/(N*omega)={format(const, '.6f')} at beta=2",
            hard=False,
        )
    )

    tc = dicke_tc(1.0, 1.0, 1.0)
    oracle = 0.5 / math.atanh(0.25)
    misses = [abs(tc.tc_implicit - oracle), abs(tc.tc_closed_form - 0.5 * math.tanh(0.25))]
    worst = float(np.max(misses))
    raised = False
    try:
        dicke_tc(8.0, 1.0, 1.0)
    except NoTransitionError:
        raised = True
    edge = dicke_tc(4.0, 1.0, 1.0).tc_implicit
    free = dicke_tc(1.0, 0.0, 1.0).tc_implicit
    ok = worst <= 1e-10 and raised and edge == 0.0 and abs(free - 2.0) <= 1e-12
    out.append(
        CheckResult(
            "dicke_tc_roots",
            ok,
            f"worst={_e(worst)} no_transition_raised={raised} "
            f"boundary={edge} free_atom_limit={free}",
        )
    )


def _suite_tfim(seed, instances, dim_max, out):
    classical = chi_f_spectral(tfim(3, 1.0, 0.0, 1.2)).classical
    rep = bound_report(tfim(3, 1.0, 0.7, 1.3), check_chi_n=False)
    out.append(
        CheckResult(
            "tfim_structure",
            classical == 0.0 and rep.sandwich_ok,
            f"classical_at_g0={_e(classical)} sandwich_ok={rep.sandwich_ok}",
        )
    )
    # per site, the chi_N oracle's free-fermion <S>_h against the per-block route
    gaps = []
    for g in (-1.0, 0.0, 1.0):
        fam = tfim(5, 1.0, g, 1.0)
        for beta in (1e-2, 1.0, 1e2):
            free = family_at_beta(fam, beta)
            blocks = replace(free, quasi_free=None)
            for h in (1e-3, -1e-3):
                one_body = float(np.sum(_one_body_terms(free, h)))
                gaps.append(abs(one_body - _mean_s(blocks, h)) / 5)
    out.append(CheckResult("tfim_quasi_free", *_within(gaps, 1e-12)))


def _pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _suite_file(seed, instances, dim_max, out):
    t = [[_pair(-1.0), _pair(0.0)], [_pair(0.0), _pair(1.0)]]
    s = [[_pair(0.0), _pair(1.0)], [_pair(1.0), _pair(0.0)]]
    good = {"dim": 2, "beta": 1.0, "T": t, "S": s}
    rejects = [
        ({**good, "extra": 1}, ModelSchemaError),
        ({k: v for k, v in good.items() if k != "S"}, ModelSchemaError),
        ({**good, "dim": 2.0}, ModelSchemaError),
        (None, ModelParseError),  # trailing garbage, written specially
        ("nan", ModelParseError),  # NaN entry, written specially
        ({**good, "T": [[_pair(-1.0), _pair(1.0)], [_pair(0.0), _pair(1.0)]]},
         NotHermitianError),
    ]
    hits = 0
    round_trip = np.inf
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(good, fh)
        fam = model_from_file(path)
        direct = single_spin(1.0)
        round_trip = abs(
            chi_f_spectral(fam).total - chi_f_spectral(direct).total
        )
        for k, (payload, expected) in enumerate(rejects):
            bad = os.path.join(tmp, f"bad{k}.json")
            with open(bad, "w", encoding="utf-8") as fh:
                if payload is None:
                    json.dump(good, fh)
                    fh.write("{}")
                elif payload == "nan":
                    text = json.dumps(good)
                    fh.write(text.replace("[-1.0, 0.0]", "[NaN, 0.0]", 1))
                else:
                    json.dump(payload, fh)
            try:
                model_from_file(bad)
            except expected:
                hits += 1
            except Exception:
                pass
    out.append(
        CheckResult(
            "model_file_contract",
            round_trip <= 1e-14 and hits == len(rejects),
            f"round_trip={_e(round_trip)} rejections={hits}/{len(rejects)}",
        )
    )


def _suite_determinism(seed, instances, dim_max, out):
    s0 = _seeds(seed, 50, 1)[0]
    f1 = random_pair(6, s0, beta=1.7)
    f2 = random_pair(6, s0, beta=1.7)
    same = all(
        np.array_equal(b1.levels, b2.levels) and np.array_equal(b1.s_eig, b2.s_eig)
        for b1, b2 in zip(f1.blocks, f2.blocks)
    )
    r1 = bound_report(f1)
    r2 = bound_report(f2)
    same = same and r1 == r2
    out.append(
        CheckResult(
            "deterministic_rebuild",
            same,
            f"identical={same}",
        )
    )


def _suite_beta_scaling(seed, instances, dim_max, out):
    fam0 = random_pair(6, _seeds(seed, 60, 1)[0], beta=0.4)
    ratios = []
    for k in range(4):
        fam = family_at_beta(fam0, 0.4 / 2**k)
        chi = chi_f_spectral(fam).total
        ub = 0.25 * fam.beta * fam.beta * bd_inner_product(fam)
        ratios.append((ub - chi) / ub)
    exps = [math.log2(ratios[k] / ratios[k + 1]) for k in range(3)]
    ok = float(np.min(exps)) >= 0.9
    out.append(
        CheckResult(
            "upper_gap_beta_scaling",
            ok,
            f"exponents={_e(exps[0])},{_e(exps[1])},{_e(exps[2])} min=0.9",
        )
    )


_SUITES: List[Callable] = [
    _suite_kernels,
    _suite_random,
    _suite_oracles,
    _suite_taylor,
    _suite_limits,
    _suite_commuting,
    _suite_single_spin,
    _suite_kondo,
    _suite_dicke,
    _suite_tfim,
    _suite_file,
    _suite_determinism,
    _suite_beta_scaling,
]


def run_verify(seed: int = 42, instances: int = 1000, dim_max: int = 12) -> VerifySummary:
    """Run every invariant suite; the result text is stable per seed.

    ``instances`` sizes the main random-family stream; the expensive
    finite-difference oracles run on min(instances, 100) families.
    """
    seed = _integer("seed", seed)
    instances = _integer("instances", instances)
    dim_max = _integer("dim_max", dim_max)
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if not 2 <= dim_max <= 16:
        raise ValueError(f"dim_max must lie in [2, 16], got {dim_max}")

    results: List[CheckResult] = []
    for suite in _SUITES:
        try:
            suite(seed, instances, dim_max, results)
        except Exception as exc:
            results.append(
                CheckResult(
                    suite.__name__.replace("_suite_", "") + "_suite",
                    False,
                    f"error={type(exc).__name__}",
                )
            )

    lines = [f"verify seed={seed} instances={instances} dim_max={dim_max}"]
    hard = [r for r in results if r.hard]
    failed = [r for r in hard if not r.passed]
    for r in results:
        tag = "REPORT" if not r.hard else ("PASS" if r.passed else "FAIL")
        lines.append(f"{tag} {r.name} {r.detail}")
    lines.append(
        f"result: {len(hard) - len(failed)}/{len(hard)} hard checks passed, "
        f"{len(results) - len(hard)} report-only"
    )
    return VerifySummary(
        text="\n".join(lines) + "\n",
        passed=not failed,
        results=results,
    )
