"""Upper/lower bound machinery and the curvature cross-checks."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import fidsus.bounds
import fidsus.fidelity
from conftest import (
    clustered_families,
    complex_sector_family,
    random_hermitian,
    seeded_families,
    whole_family,
)
from fidsus.bounds import (
    _FD_LADDER,
    bd_inner_product,
    bd_integral_oracle,
    bound_report,
    double_commutator,
    double_commutator_direct,
    free_energy_curvature,
)
from fidsus.config import DCOMM_AGREEMENT_REL, DEGENERATE_GAP
from fidsus.errors import CrossCheckError, CutoffConvergenceWarning
from fidsus.fidelity import chi_f_spectral, chi_fg_spectral, ds2_spectral
from fidsus.gibbs import (
    block_family,
    correlation_G,
    family_at_beta,
    make_family,
)
from fidsus.models import ModelSpec, build_model, dicke, kondo_toy, random_pair, single_spin, tfim
from fidsus.sweep import SweepSpec, compute_rows

_EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("h3", [0.1, 0.3, 1.0, 2.5, 5.0])
def test_single_spin_closed_forms(h3):
    """One spin in a tilted field has elementary answers for everything."""
    fam = single_spin(h3)
    th = math.tanh(h3)
    assert chi_f_spectral(fam).total == pytest.approx(
        th * th / (4.0 * h3 * h3), abs=1e-12
    )
    assert bd_inner_product(fam) == pytest.approx(th / h3, abs=1e-12)
    assert double_commutator(fam) == pytest.approx(4.0 * h3 * th, abs=1e-12)
    rep = bound_report(fam)
    assert rep.lower_paper == pytest.approx(
        (th / (4.0 * h3)) * (1.0 - h3 * h3 / 3.0), abs=1e-12
    )
    assert rep.upper == pytest.approx(th / (4.0 * h3), abs=1e-12)


def test_sandwich_on_random_families():
    for fam in seeded_families(3001, 60, 2, 12, 0.1, 10.0):
        chi = chi_f_spectral(fam).total
        rep = bound_report(fam, check_chi_n=False)
        ub = rep.upper
        lb = max(rep.lower_paper, chi_fg_spectral(fam), 0.0)
        assert lb - 1e-10 <= chi <= ub + 1e-10


def test_upper_is_quarter_beta_sq_bd():
    fam = random_pair(7, 12, 1.0, 1.0, 2.3)
    assert bound_report(fam).upper == pytest.approx(
        0.25 * 2.3**2 * bd_inner_product(fam), rel=1e-14
    )


def test_lower_is_upper_minus_commutator_term():
    fam = random_pair(6, 13, 1.0, 1.0, 1.7)
    beta = 1.7
    rep = bound_report(fam)
    expect = rep.upper - beta**3 * double_commutator(fam) / 48.0
    assert rep.lower_paper == pytest.approx(expect, rel=1e-13)


def test_bd_spectral_vs_quadrature():
    for fam in seeded_families(3002, 30, 2, 10, 0.1, 8.0):
        spectral = bd_inner_product(fam)
        quad = bd_integral_oracle(fam)
        assert abs(spectral - quad) <= 1e-9 * max(1.0, spectral)


def test_half_circle_quadrature_matches_the_full_circle():
    """By G(tau) = G(beta - tau), the 64-node rule on [0, beta/2] gives the
    average of G over the whole circle that the 64-node rule on [0, beta]
    gives, to rounding."""
    x, w = np.polynomial.legendre.leggauss(64)
    for fam in seeded_families(3004, 40, 2, 12, 0.1, 10.0):
        full = 0.5 * float(np.dot(w, correlation_G(fam, 0.5 * (x + 1.0) * fam.beta)))
        assert abs(bd_integral_oracle(fam) - full) <= 1e-13 * abs(full)


def test_a_report_keeps_the_values_verify_reuses(monkeypatch, pair_passes):
    """After bound_report, double_commutator_direct and chi_fg_spectral return
    the floats it computed without forming a commutator or a pair sum."""
    fresh = random_pair(9, 16, 1.0, 1.0, 1.4)
    direct, fg = double_commutator_direct(fresh), chi_fg_spectral(fresh)
    fam = random_pair(9, 16, 1.0, 1.0, 1.4)
    assert bound_report(fam).lower_aasc == fg
    assert pair_passes == [fresh, fam]
    calls = []
    for name in ("_commutator_diagonal", "_weigh"):
        monkeypatch.setattr(fidsus.bounds, name, lambda *a: calls.append(a))
    assert double_commutator_direct(fam) == direct
    assert chi_fg_spectral(fam) == fg
    assert calls == []
    assert pair_passes == [fresh, fam]


def test_bd_on_commuting_family_is_fluctuation():
    rng = np.random.default_rng(31)
    t = np.diag(rng.normal(size=6))
    s = np.diag(rng.normal(size=6))
    fam = make_family(t, s, 0.9)
    (b,) = fam.blocks
    p = b.populations
    sd = np.real(np.diagonal(b.s_eig))
    var = float(np.dot(p, (sd - np.dot(p, sd)) ** 2))
    assert bd_inner_product(fam) == pytest.approx(var, rel=1e-13)


def test_double_commutator_forms_agree():
    for fam in seeded_families(3003, 25, 2, 10, 0.2, 6.0):
        spec = double_commutator(fam)
        direct = double_commutator_direct(fam)
        assert spec >= 0.0
        assert abs(spec - direct) <= 1e-9 * max(1.0, spec)


@pytest.mark.parametrize(
    "direct, check",
    [
        (lambda spec: spec * (1.0 + 1e-6), "dcomm_forms"),
        (lambda spec: -1e-9, "dcomm_negative"),
        (lambda spec: math.nan, "dcomm_negative"),
    ],
    ids=["perturbed", "negative", "nan"],
)
def test_double_commutator_guards_fire(monkeypatch, direct, check):
    """A commutator route off by 1e-6 relative breaks the agreement check;
    a negative or NaN one fails the sign test first."""
    fam = random_pair(6, 13, 1.0, 1.0, 1.7)
    spec = double_commutator(fam)
    monkeypatch.setattr(fidsus.bounds, "double_commutator_direct", lambda fam: direct(spec))
    with pytest.raises(CrossCheckError) as err:
        double_commutator(fam)
    assert err.value.check == check
    with pytest.raises(CrossCheckError) as err:
        bound_report(fam, check_chi_n=False)
    assert err.value.check == check


def test_double_commutator_zero_when_commuting():
    t = np.diag([0.0, 1.0, 3.0])
    s = np.diag([1.0, -1.0, 2.0])
    fam = make_family(t, s, 1.0)
    assert double_commutator(fam) == pytest.approx(0.0, abs=1e-15)


def test_commuting_family_saturates_everything():
    rng = np.random.default_rng(32)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )
        t = q @ np.diag(rng.normal(size=dim)) @ q.conj().T
        s = q @ np.diag(rng.normal(size=dim)) @ q.conj().T
        beta = float(rng.uniform(0.3, 4.0))
        fam = make_family(t, s, beta)
        chi = chi_f_spectral(fam).total
        scale = max(1.0, chi)
        rep = bound_report(fam)
        assert abs(rep.upper - chi) <= 1e-12 * scale
        assert abs(rep.lower_paper - chi) <= 1e-12 * scale
        assert abs(chi_fg_spectral(fam) - 0.5 * chi) <= 1e-12 * scale


def test_chi_n_matches_free_energy_curvature():
    for fam in seeded_families(3004, 20, 2, 8, 0.2, 5.0):
        chi_n = bound_report(fam, check_chi_n=False).chi_n
        fd = free_energy_curvature(fam)
        assert abs(chi_n - fd) <= 1e-6 * max(1.0, abs(chi_n))


def test_chi_n_closed_form_on_single_spin():
    # transverse perturbation of a tilted spin: the curvature of
    # -f = log(2 cosh(beta r))/beta at the origin is tanh(beta h3)/h3
    h3 = 0.8
    fam = single_spin(h3)
    assert bound_report(fam).chi_n == pytest.approx(
        math.tanh(h3) / h3, rel=1e-9
    )


def _both_signs_curvature(fam):
    """The chi_N oracle with both signs of every field solved, at +-h_k/2
    and +-h_k, on the family's blocks solved whole: the reference for the
    sign-odd shortcut."""
    blocks = [(np.diag(b.levels), b.s_eig, b.copies) for b in fam.blocks]
    return free_energy_curvature(
        whole_family(blocks, fam.beta, fam.particle_count, fam.quasi_free)
    )


def _top_step(fam):
    """h_k of the oracle's ladder at the family's beta, for one block."""
    (b,) = fam.blocks
    s, n = b.s_eig, fam.dim
    spread = 2.0 * float(np.linalg.norm(s - (np.trace(s).real / n) * np.eye(n)))
    k = math.ceil(math.log2(max(1.0, fam.beta)))
    return math.ldexp(_FD_LADDER / (spread if spread > 0.0 else 1.0), -k)


def _dicke(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        return dicke(*args, **kwargs)


def _on_levels(s, levels=(-0.3, 0.4, 1.2, 2.0)):
    s = np.asarray(s)
    return make_family(np.diag(levels[: s.shape[0]]), s, 1.1)


_FOUR_CYCLE = np.array(
    [[0, 1j, 0, 2], [-1j, 0, 0.5, 0], [0, 0.5, 0, 1 - 1j], [2, 0, 1 + 1j, 0]]
)
_PATH = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
# T links 0-1 and 2-3, S links across the two pairs: D = diag(1, 1, -1, -1)
_PAIRS_T = np.array(
    [[0.0, 0.5, 0, 0], [0.5, 1.0, 0, 0], [0, 0, 2.0, 0.3j], [0, 0, -0.3j, 3.0]]
)
_PAIRS_S = np.array(
    [[0, 0, 1.0, 2.0], [0, 0, 0, 0.5], [1.0, 0, 0, 0], [2.0, 0.5, 0, 0]]
)

SIGN_CASES = {
    "dicke": (lambda: _dicke(2, 8, 2.0, 1.0, 0.5, 1.3), True),
    "dicke_sector": (lambda: _dicke(4, 12, 2.0, 1.0, 1.0, 1.0, symmetric_sector=True), True),
    "single_spin": (lambda: single_spin(0.8), True),
    "four_cycle": (lambda: _on_levels(_FOUR_CYCLE), True),
    "linked_t": (lambda: make_family(_PAIRS_T, _PAIRS_S, 1.1), True),
    "zero": (lambda: _on_levels(np.zeros((3, 3))), True),
    "tfim": (lambda: tfim(4, 1.0, 0.7, 1.5), False),
    "kondo_toy": (lambda: kondo_toy(1, [0.0, 0.5], 0.8, 1.5), False),
    "random": (lambda: random_pair(6, 3, 1.0, 1.0, 1.2), False),
    "triangle": (lambda: _on_levels(1.0 - np.eye(3)), False),
    "diagonal_entry": (lambda: _on_levels(_PATH + np.diag([0.0, 0.0, 0.3])), False),
    "shared_link": (
        lambda: make_family(np.diag([-0.3, 0.4, 1.2]) + 0.5 * (_PATH == 1.0), _PATH, 1.1),
        False,
    ),
}


# the entries of PerturbedFamily.shared that hold no solved field
_BOOKKEEPING = {"spread", "sorted_levels"}


@pytest.mark.parametrize("case", sorted(SIGN_CASES))
def test_sign_odd_rule(case, eig_calls):
    """S is sign-odd when, in the basis the builder wrote, its diagonal is
    exactly zero and the states two-colour so that T links states of one
    colour and S states of opposite colours; the chi_N oracle then solves
    the fields +h/2 and +h only, each block once (a free-fermion family
    by one SVD per field, with no eigensolve), and it agrees with the
    difference that solves both signs."""
    build, odd = SIGN_CASES[case]
    fam = build()
    assert fam.sign_odd is odd
    assert family_at_beta(fam, 2.0 * fam.beta).sign_odd is odd
    eig_calls.clear()
    fd = free_energy_curvature(fam)
    fields = 2 if odd else 4
    assert len(fam.shared.keys() - _BOOKKEEPING) == fields
    blocks = 0 if fam.quasi_free is not None else len(fam.blocks)
    assert len(eig_calls) == fields * blocks
    ref = _both_signs_curvature(fam)
    assert abs(fd - ref) <= 1e-9 * max(1.0, abs(ref))


@st.composite
def bipartite_families(draw):
    """T diagonal, or a direct sum over the two halves of a bipartition,
    and S nonzero only between the halves (some links dropped), real or
    complex, at any beta in [0.1, 10] and ||S|| in [1e-2, 1e2].  When
    asked, S also gets one nonzero diagonal entry, or T and S both link
    one pair across the halves, and the family is then not odd."""
    dim = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    side = rng.permutation(np.arange(dim) % 2 == 0)

    def draw_matrix():
        g = rng.normal(size=(dim, dim))
        if not real:
            g = g + 1j * rng.normal(size=(dim, dim))
        return g + g.conj().T

    link = (side[:, None] != side[None, :]) & (rng.random((dim, dim)) < 0.7)
    s = np.where(link & link.T, draw_matrix(), 0.0)
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    norm = np.linalg.norm(s, 2)
    if norm:
        s *= scale / norm
    if draw(st.booleans()):
        t = np.where(side[:, None] == side[None, :], draw_matrix(), 0.0)
    else:
        t = np.diag(rng.uniform(-3.0, 3.0, size=dim))
    odd = draw(st.booleans())
    if not odd and draw(st.booleans()):
        i, j = np.flatnonzero(side)[0], np.flatnonzero(~side)[0]
        s[i, j] = s[j, i] = scale
        t[i, j] = t[j, i] = draw(st.floats(0.1, 1.0))
    elif not odd:
        k = int(rng.integers(dim))
        s[k, k] = scale * draw(st.floats(0.01, 1.0))
    beta = 10.0 ** draw(st.floats(-1.0, 1.0))
    return make_family(t, s, beta), odd


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=bipartite_families())
def test_sign_odd_oracle_matches_four_solves(case):
    """-<S>_h stands in for <S>_{-h} only when S is sign-odd.  LAPACK's
    solves at +h and -h need not agree to the last bit: each <S>_h is
    within about dim eps ||S||_2 max(1, beta ||A||_2) of the other, as an
    eigenvalue error of eps ||A||_2 moves the weights by beta times that
    and an eigenvector error enters weighted by population differences.
    The stencil weighs <S>_{-h/2} and <S>_{-h} by 4/3 and 1/6 over h."""
    fam, odd = case
    fd, ref = free_energy_curvature(fam), _both_signs_curvature(fam)
    h = _top_step(fam)
    (b,) = fam.blocks
    s_norm = float(np.linalg.norm(b.s_eig, 2))
    a_norm = float(np.abs(b.levels).max()) + h * s_norm
    floor = 1.5 * fam.dim * _EPS * s_norm * max(1.0, fam.beta * a_norm) / h
    assert abs(fd - ref) <= floor
    assert fam.sign_odd is odd


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([4, 12, 40]),
    beta=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
    s_norm=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    shift=st.sampled_from([0.0, 100.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chi_n_oracle_on_the_tuning_grid(dim, beta, s_norm, shift, seed):
    """Random complex families at dimension 4, 12 or 40, beta from 1e-3 to
    1e2, ||S||_2 from 1e-3 to 1e3 and T shifted by 0 or 100 I: the slope
    of <S>_h/N is within 1e-8 of max(1, |chi_N|), a hundredth of the
    check's tolerance."""
    rng = np.random.default_rng(seed)
    t = random_hermitian(rng, dim) + shift * np.eye(dim)
    s = random_hermitian(rng, dim)
    fam = make_family(t, s * (s_norm / np.linalg.norm(s, 2)), beta)
    chi = fam.beta * bd_inner_product(fam) / fam.particle_count
    assert abs(free_energy_curvature(fam) - chi) <= 1e-8 * max(1.0, abs(chi))


def test_chi_n_oracle_where_populations_underflow():
    """Past the onset of underflow the oracle still agrees while its step
    resolves <S>_h; at larger beta the step is lost in the rounding of T,
    and the report raises the typed chi_n_oracle error instead of
    returning a number."""
    fam = random_pair(12, 5, 1.0, 1.0, 1.0)
    outcomes = set()
    for e in range(1, 21):
        fam = family_at_beta(fam, 10.0**e)
        try:
            rep = bound_report(fam)
        except CrossCheckError as exc:
            assert exc.check == "chi_n_oracle"
            outcomes.add((fam.underflow_count > 0, "raised"))
        else:
            fields = dataclasses.asdict(rep)
            assert all(math.isfinite(v) for v in fields.values())
            outcomes.add((fam.underflow_count > 0, "agreed"))
    assert (True, "agreed") in outcomes and (True, "raised") in outcomes


@pytest.mark.xfail(strict=True, raises=CrossCheckError)
@pytest.mark.parametrize(
    "build",
    [
        lambda: make_family(np.diag([0.0, 1.0]), np.array([[1e3, 1e-2], [1e-2, -1e3]]), 100.0),
        lambda: random_pair(12, 5, 1.0, 1.0, 1e8),
        lambda: random_pair(12, 5, 1.0, 1.0, 1e12),
    ],
    ids=["two_level_beta_1e2", "random_12_beta_1e8", "random_12_beta_1e12"],
)
def test_chi_n_oracle_accepts_cold_and_stiff_families(build):
    """Valid families the chi_N oracle refuses today, its step shrinking as
    1/beta where the curvature is set by the gaps: the 2x2 reads 1.9665e-4
    against the spectral 2.0000e-4, and random_pair(12, 5) reads 4.7293592
    at beta 1e8 and 4.8225 at 1e12 against 4.7293874.  Each report must
    pass once the oracle picks its step from its own error estimate."""
    bound_report(build())


def test_overflowing_beta_raises_instead_of_returning_nan():
    """beta^2 overflows at beta = 1e200, and the report returned NaN for
    chi_f, ds2 and both lower bounds because NaN > tol is false."""
    with np.errstate(over="ignore", invalid="ignore"):
        fam = random_pair(12, 5, 1.0, 1.0, 1e200)
        with pytest.raises(CrossCheckError) as err:
            bound_report(fam, check_chi_n=False)
    assert err.value.check == "chi_f_forms"


def test_chi_n_oracle_step_underflow_is_typed():
    with np.errstate(over="ignore", invalid="ignore"):
        fam = random_pair(4, 0, 1.0, 1e15, 1e308)
    with pytest.raises(CrossCheckError) as err:
        free_energy_curvature(fam)
    assert err.value.check == "chi_n_oracle"


def test_beta_sweep_solves_each_oracle_field_once(eig_calls):
    """The displaced levels and diagonals do not depend on beta, so a chain
    of family_at_beta families shares them: its oracle values are bit for
    bit those of fresh builds, each field of the ladder is solved once, and
    each of its two blocks once per field, the first for both its copies."""
    rng = np.random.default_rng(71)
    ta, tb = np.diag([-0.4, 0.3, 1.1]), np.diag([-0.9, 0.2, 0.6, 1.7])
    sa, sb = random_hermitian(rng, 3), random_hermitian(rng, 4)
    blocks = [(ta, sa, 2), (tb, sb, 1)]
    betas = np.geomspace(0.5, 9.0, 9)
    fresh = [free_energy_curvature(block_family(blocks, b)) for b in betas]
    eig_calls.clear()
    fam = block_family(blocks, betas[0])
    assert len(fam.blocks) == 2 and fam.dim == 10
    chain = []
    for b in betas:
        fam = family_at_beta(fam, b)
        chain.append(free_energy_curvature(fam))
    assert chain == fresh
    # rungs 0 to 4 step h_0 to h_5, each field at both signs
    assert len(fam.shared.keys() - _BOOKKEEPING) == 12
    assert len(eig_calls) == 2 + 12 * 2
    # the declared copies and their dense direct sum agree
    dense = make_family(block_diag(ta, tb, ta), block_diag(sa, sb, sa), betas[-1])
    ref = free_energy_curvature(dense)
    assert abs(chain[-1] - ref) <= 1e-9 * max(1.0, abs(ref))


def test_tfim_oracle_reuses_its_free_fermion_solves(monkeypatch, eig_calls):
    """The tfim oracle solves each field by one SVD of the one-body matrix
    and no eigensolve; a second beta on the same rung of the step ladder
    reuses all four fields."""
    svds = []
    real = fidsus.bounds.svd_checked

    def counted(m):
        svds.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(fidsus.bounds, "svd_checked", counted)
    fam = tfim(5, 1.0, 0.7, 5.0)
    eig_calls.clear()
    first = free_energy_curvature(fam)
    assert len(fam.shared.keys() - _BOOKKEEPING) == 4 and svds == [5] * 4 and not eig_calls
    warm = family_at_beta(fam, 6.0)
    assert math.ceil(math.log2(6.0)) == math.ceil(math.log2(5.0))
    second = free_energy_curvature(warm)
    assert len(warm.shared.keys() - _BOOKKEEPING) == 4 and len(svds) == 4 and not eig_calls
    for f, value in ((fam, first), (warm, second)):
        chi = f.beta * bd_inner_product(f) / f.particle_count
        assert abs(value - chi) <= 1e-9 * max(1.0, abs(chi))


@pytest.mark.parametrize(
    "n, g, beta, solves_blocks",
    [(10, 2.5, 1e5, False), (10, 0.0, 1e6, True), (7, 1e-9, 1e6, True)],
)
def test_cold_chains_pass_the_chi_n_oracle(n, g, beta, solves_blocks, eig_calls):
    """At beta = 1e5 the per-block <S>_h of a 10-site paramagnet lost 2e-6
    of chi_N to rounding, and the free-fermion sum keeps it within
    FD_ORACLE_REL.  Near g = 0 the free-fermion terms cancel to the O(h)
    of <S>_h, and at beta = 1e6 their sum missed chi_N by up to 5e-6, so
    the oracle solves the parity blocks there instead."""
    fam = tfim(n, 1.0, g, beta)
    eig_calls.clear()
    assert bound_report(fam).sandwich_ok
    assert set(eig_calls) == ({2 ** (n - 1)} if solves_blocks else set())


def test_double_commutator_direct_block_by_block():
    """On a block family the commutator is formed per block; it matches the
    commutator route of one dense family, the direct sum of every copy of
    every block in its eigenbasis."""
    for fam in (
        _dicke(3, 12, 2.0, 1.0, 1.0, 1.0),
        tfim(5, 1.0, 0.7, 1.5),
    ):
        assert len(fam.blocks) > 1
        copies = [b for b in fam.blocks for _ in range(b.copies)]
        t = block_diag(*(np.diag(b.levels) for b in copies))
        dense = make_family(t, block_diag(*(b.s_eig for b in copies)), fam.beta)
        assert double_commutator_direct(fam) == pytest.approx(
            double_commutator_direct(dense), rel=1e-13, abs=0
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda: _dicke(4, 6, 2.0, 1.0, 1.0, 1.0),
        lambda: tfim(4, 1.0, 0.0, 1.0),
        lambda: complex_sector_family(29, 0.8),
    ],
    ids=["dicke", "tfim_found_sectors", "complex_found_sectors"],
)
def test_sector_commutator_diagonal_matches_the_whole_block_product(build):
    """Where a block has sectors the commutator is formed sector by sector;
    its diagonal is that of the whole-block k @ s - s @ k, and the
    route's value is the one those whole-block diagonals give."""
    fam = build()
    assert fam.sign_odd
    want = 0.0
    for b in fam.blocks:
        ev, s = b.levels, b.s_eig
        k = s * (ev[None, :] - ev[:, None])
        whole = np.diagonal(k @ s - s @ k)
        re, im, _ = fidsus.bounds._commutator_diagonal(b)
        assert np.all(np.abs(re - whole.real) <= 1e-12 * np.maximum(1.0, np.abs(whole.real)))
        if im is not None:
            assert np.all(np.abs(im - whole.imag) <= 1e-12)
        want += b.copies * float(np.dot(b.populations, whole.real))
    assert abs(double_commutator_direct(fam) - want) <= 1e-12 * max(1.0, abs(want))


def test_beta_sweep_forms_each_commutator_once(commutator_calls):
    """A beta sweep's families share one commutator diagonal per block: the
    sweep forms each once, and every row's dcomm and the direct route of
    every temperature are those of a family rebuilt at that beta."""
    model = ModelSpec(
        "dicke", {"omega": 2.0, "eps": 1.0, "lambda": 1.0, "beta": 1.0},
        {"n_atoms": 2, "n_max": 8},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        rows = compute_rows(SweepSpec(model, "beta", 0.5, 4.0, 6, scale="log"))
        base = build_model(model)
        assert commutator_calls == [b.levels.size for b in base.blocks]
        direct = []
        for row in rows:
            spec = dataclasses.replace(model, parameters={**model.parameters, "beta": row.param})
            fresh = build_model(spec)
            assert row.dcomm == double_commutator(fresh)
            direct.append(double_commutator_direct(fresh))
            assert abs(row.dcomm - direct[-1]) <= DCOMM_AGREEMENT_REL * max(1.0, row.dcomm)
    commutator_calls.clear()
    assert [double_commutator_direct(family_at_beta(base, row.param)) for row in rows] == direct
    assert len(commutator_calls) == len(base.blocks)


def test_thermo_check_can_be_disabled():
    fam = random_pair(5, 14, 1.0, 1.0, 3.0)
    a = bound_report(fam, check_chi_n=True)
    b = bound_report(fam, check_chi_n=False)
    assert a == b


def test_bound_report_mirrors_standalone_calls():
    fam = random_pair(8, 15, 1.0, 1.0, 2.2)
    rep = bound_report(fam)
    parts = chi_f_spectral(fam)
    assert rep.chi_f == parts.total
    assert rep.chi_f_classical == parts.classical
    assert rep.chi_f_quantum == parts.quantum
    assert rep.bd_product == bd_inner_product(fam)
    assert rep.dcomm == double_commutator(fam)
    assert rep.upper == 0.25 * 2.2 * 2.2 * bd_inner_product(fam)
    assert rep.lower_paper == rep.upper - 2.2 * 2.2 * 2.2 * double_commutator(fam) / 48.0
    assert rep.lower_aasc == chi_fg_spectral(fam)
    assert rep.ds2 == ds2_spectral(fam)
    assert rep.beta == 2.2
    assert rep.degenerate_pair_count == parts.degenerate_pair_count
    assert rep.sandwich_ok


def test_upper_gap_shrinks_at_least_linearly_in_beta():
    """The sandwich pinches as beta drops; measure the decay exponent."""
    fam = random_pair(6, 17, 1.0, 1.0, 3.2)
    gaps = []
    for k in range(4):
        cold = family_at_beta(fam, 0.4 / 2**k)
        chi = chi_f_spectral(cold).total
        ub = bound_report(cold).upper
        gaps.append((ub - chi) / ub)
    for lo, hi in zip(gaps[1:], gaps[:-1]):
        assert math.log2(hi / lo) >= 0.9


def test_one_report_makes_one_pair_pass(pair_passes):
    """Every spectral sum of a report reads one pass over the blocks, and
    the family keeps only scalars of it: no pair array outlives the pass."""
    fam = random_pair(9, 21, beta=1.3)
    rep = bound_report(fam, check_chi_n=False)
    assert pair_passes == [fam]
    assert bound_report(fam, check_chi_n=False) == rep
    assert pair_passes == [fam]
    kept = [x for v in fam.memo.values() for x in (v if isinstance(v, tuple) else [v])]
    assert not any(isinstance(x, np.ndarray) for x in kept)

    # a family_at_beta copy makes its own pass, and the memo changes no number
    hot = family_at_beta(fam, 2.6)
    hot_rep = bound_report(hot, check_chi_n=False)
    assert pair_passes == [fam, hot]
    assert bound_report(family_at_beta(fam, 2.6), check_chi_n=False) == hot_rep
    assert bound_report(family_at_beta(fam, 1.3), check_chi_n=False) == rep
    assert len(pair_passes) == 4


def test_dicke_build_and_report_make_one_pass_per_family(pair_passes):
    """The cutoff probe sums the pairs of the wider family and of the built
    family once each, and the report on the built family reuses the latter."""
    fam = dicke(2, 8, 2, 1, 0.5, 1)
    bound_report(fam, check_chi_n=False)
    assert len(pair_passes) == 2
    assert pair_passes[0].dim > fam.dim
    assert pair_passes[1] is fam


def test_report_memory_is_bounded_by_the_largest_block():
    """The pass drops each block's pair arrays before the next block: on a
    full-space Dicke family of 9 blocks up to 221 levels a report keeps
    nothing after it returns and peaks below the sum of the blocks' grids
    (a family that cached every block's grid kept 7.7 MiB and peaked at
    10.6 MiB)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fam = family_at_beta(dicke(16, 12, 2, 1, 1, 1), 1.0)
    tracemalloc.start()
    try:
        bound_report(fam, check_chi_n=False)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    assert peak < 8 * 2**20


def test_dicke_build_and_report_evaluate_chi_f_once_per_family(monkeypatch):
    """The cutoff probe evaluates chi_f of the wider family and of the
    built one; the report reads the built family's value back instead of
    evaluating it a third time."""
    checks = []
    real = fidsus.fidelity.check_agreement

    def counted(check, *args):
        checks.append(check)
        return real(check, *args)

    monkeypatch.setattr(fidsus.fidelity, "check_agreement", counted)
    fam = dicke(2, 8, 2, 1, 0.5, 1)
    assert checks.count("chi_f_forms") == 2
    rep = bound_report(fam)
    assert checks.count("chi_f_forms") == 2
    assert rep.chi_f == chi_f_spectral(fam).total
    assert chi_f_spectral(family_at_beta(fam, 1.0)).total == rep.chi_f
    assert checks.count("chi_f_forms") == 3


def test_report_is_invariant_under_a_change_of_basis():
    """LAPACK picks an arbitrary basis inside each degenerate eigenspace;
    no reported sum may depend on that choice."""
    rng = np.random.default_rng(61)
    levels = np.repeat([-0.4, 0.3, 1.1, 1.6, 2.5], [3, 1, 2, 3, 1])
    dim = levels.size
    t = np.diag(levels).astype(complex)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    s = 0.5 * (g + g.conj().T)

    def fields(t, s):
        return dataclasses.asdict(bound_report(make_family(t, s, 1.7, particle_count=2)))

    base = fields(t, s)
    assert base["degenerate_pair_count"] == 3 + 1 + 3
    # the classical and quantum parts are compared separately below
    assert base["chi_f_classical"] > 0.0 and base["chi_f_quantum"] > 0.0
    for _ in range(4):
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        moved = fields(u @ t @ u.conj().T, u @ s @ u.conj().T)
        assert moved.keys() == base.keys()
        for key, value in base.items():
            assert moved[key] == pytest.approx(value, rel=1e-12, abs=0), key


@pytest.mark.parametrize(
    "build",
    [
        lambda: single_spin(0.8),
        lambda: dicke(2, 8, 2.0, 1.0, 0.5, 1.3),
        lambda: kondo_toy(1, [0.0, 0.5], 0.8, 1.5),
        lambda: tfim(4, 1.0, 0.7, 1.5),
    ],
    ids=["single_spin", "dicke", "kondo_toy", "tfim"],
)
def test_real_family_matches_its_complex_phase_conjugate(build):
    """A diagonal phase unitary D makes T and S complex without changing
    the family, so the complex path is a reference for the float64 one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fam = build()
    rng = np.random.default_rng(fam.dim)

    # one real rotation per block, so T is not diagonal in the rebuilt basis
    turns = [np.linalg.qr(rng.normal(size=(b.levels.size,) * 2))[0] for b in fam.blocks]

    def rebuilt(phased):
        blocks = []
        for blk, q in zip(fam.blocks, turns):
            n = blk.levels.size
            d = np.diag(np.exp(2j * np.pi * rng.random(n)) if phased else np.ones(n))
            t = d @ (q * blk.levels) @ q.T @ d.conj().T
            s = d @ q @ blk.s_eig @ q.T @ d.conj().T
            blocks.append((t, s, blk.copies))
        return block_family(blocks, fam.beta, fam.particle_count)

    real, cplx = rebuilt(False), rebuilt(True)
    assert all(b.s_eig.dtype == np.float64 for b in real.blocks)
    assert all(b.s_eig.dtype == np.complex128 for b in cplx.blocks)
    want = dataclasses.asdict(bound_report(cplx))
    got = dataclasses.asdict(bound_report(real))
    assert got.keys() == want.keys()
    for key, value in want.items():
        # a part of chi_f that vanishes by symmetry (the classical part
        # of a parity-odd S) is rounding noise, measured against chi_f
        floor = 1e-12 * want["chi_f"] if key.startswith("chi_f_") else 0.0
        assert got[key] == pytest.approx(value, rel=1e-12, abs=floor), key


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    fam=clustered_families(s_scales=st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
)
def test_report_on_clustered_spectra_at_any_norm(fam):
    """Clustered and exactly degenerate spectra, beta 1e-3 to 1e3 and
    ||S|| over twelve decades: the report is finite and warning-free, the
    sandwich holds and ds2 equals chi_f."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bound_report(fam, check_chi_n=False)
    fields = dataclasses.asdict(rep)
    assert all(math.isfinite(v) for v in fields.values())
    assert rep.sandwich_ok
    assert abs(rep.ds2 - rep.chi_f) <= 1e-10 * max(1.0, abs(rep.chi_f))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    fam=clustered_families(s_scales=st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
)
def test_chi_n_oracle_on_clustered_spectra_at_any_norm(fam):
    """The same families with the chi_N oracle on: it passes, and the report
    stays finite and warning-free."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bound_report(fam)
    fields = dataclasses.asdict(rep)
    assert all(math.isfinite(v) for v in fields.values())
    assert rep.sandwich_ok


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    beta=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    s_scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    others=st.lists(st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0)), max_size=4),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
)
def test_report_is_continuous_across_the_degeneracy_window(beta, s_scale, others, seed, real):
    """A level pair at 0 and (1 -+ 1e-6) DEGENERATE_GAP / beta sits just
    inside and just outside the window: one pair leaves the limit kernel,
    and every pair sum of the report stays put.  The classical/quantum
    split may jump there, but it always adds up to chi_f."""
    s = random_hermitian(np.random.default_rng(seed), 2 + len(others), s_scale)
    s = s.real if real else s
    inside, outside = (
        bound_report(
            make_family(np.diag([0.0, gap * DEGENERATE_GAP, *others]) / beta, s, beta),
            check_chi_n=False,
        )
        for gap in (1.0 - 1e-6, 1.0 + 1e-6)
    )
    assert inside.degenerate_pair_count == outside.degenerate_pair_count + 1
    for key in ("chi_f", "ds2", "lower_aasc", "bd_product", "upper", "lower_paper"):
        a, b = getattr(inside, key), getattr(outside, key)
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a)), key
    for rep in (inside, outside):
        assert rep.chi_f_classical + rep.chi_f_quantum == rep.chi_f
