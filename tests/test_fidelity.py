"""Susceptibility formulas against finite-difference and matrix oracles."""

import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag, sqrtm

import fidsus.fidelity
from conftest import random_hermitian, seeded_families
from fidsus.errors import (
    CrossCheckError,
    CutoffConvergenceWarning,
    DegenerateGroundStateError,
    NoConvergenceError,
    NotDensityMatrixError,
)
from fidsus.fidelity import (
    _gauss_legendre_64,
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
from fidsus.bounds import bd_inner_product, bd_integral_oracle, bound_report
from fidsus.gibbs import block_family, family_at_beta, make_family
from fidsus.models import dicke, random_pair, single_spin, tfim


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# fidelity functionals


def test_uhlmann_against_sqrtm():
    rng = np.random.default_rng(51)
    for dim in (2, 3, 5, 7):
        a = random_density(rng, dim)
        b = random_density(rng, dim)
        ra = sqrtm(a)
        ref = np.real(np.trace(sqrtm(ra @ b @ ra)))
        assert uhlmann_fidelity(a, b) == pytest.approx(ref, abs=1e-10)
    # full-rank states diagonal in one basis: F = sum_m sqrt(p_m q_m)
    for dim in (2, 3, 5, 8):
        for _ in range(10):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            v = np.linalg.qr(g)[0]
            p, q = rng.dirichlet(np.ones(dim)), rng.dirichlet(np.ones(dim))
            ref = float(np.sum(np.sqrt(p * q)))
            f = uhlmann_fidelity((v * p) @ v.conj().T, (v * q) @ v.conj().T)
            assert abs(f - ref) <= 1e-14


def test_uhlmann_basic_properties():
    rng = np.random.default_rng(52)
    a = random_density(rng, 4)
    b = random_density(rng, 4)
    assert uhlmann_fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert uhlmann_fidelity(a, b) == pytest.approx(uhlmann_fidelity(b, a), abs=1e-12)
    assert 0.0 < uhlmann_fidelity(a, b) < 1.0
    # F(rho, rho) = 1 also when rho has zero eigenvalues, where square
    # roots of the eigenvalues of sqrt(rho) rho sqrt(rho), known to
    # absolute eps, would miss it by about 1e-8
    for _ in range(200):
        dim = int(rng.integers(3, 9))
        rank = int(rng.integers(1, dim))
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert abs(uhlmann_fidelity(rho, rho) - 1.0) <= 1e-12


def test_uhlmann_rejects_non_density():
    with pytest.raises(NotDensityMatrixError):
        uhlmann_fidelity(np.eye(2), np.eye(2) / 2.0)  # trace 2
    with pytest.raises(NotDensityMatrixError):
        uhlmann_fidelity(np.diag([1.5, -0.5]), np.eye(2) / 2.0)
    # a stack of one density matrix is not one: the validation takes
    # stacks, the fidelity does not
    with pytest.raises(NotDensityMatrixError, match="square matrix"):
        uhlmann_fidelity(np.eye(2)[None] / 2.0, np.eye(2) / 2.0)


def test_svd_failure_in_the_fidelity_is_a_typed_error(monkeypatch):
    """A LAPACK failure of the nuclear-norm SVD leaves `uhlmann_fidelity`
    and `chi_f_fd` as `NoConvergenceError`, like every other factorization."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    rng = np.random.default_rng(54)
    a, b = random_density(rng, 3), random_density(rng, 3)
    fam = random_pair(4, 3, 1.0, 1.0, 1.0)
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergenceError, match="svd did not converge"):
        uhlmann_fidelity(a, b)
    with pytest.raises(NoConvergenceError, match="svd did not converge"):
        chi_f_fd(fam, 1e-3)


def test_bures_distance_relation():
    rng = np.random.default_rng(53)
    a = random_density(rng, 3)
    b = random_density(rng, 3)
    f = uhlmann_fidelity(a, b)
    assert bures_distance(a, b) == pytest.approx(np.sqrt(2.0 - 2.0 * f), abs=1e-14)
    assert bures_distance(a, a) == pytest.approx(0.0, abs=1e-7)


# ---------------------------------------------------------------------------
# the susceptibility and its decomposition


def test_chi_f_vs_finite_difference():
    for fam in seeded_families(2001, 25, 2, 8, 0.2, 5.0):
        chi = chi_f_spectral(fam).total
        fd = chi_f_fd(fam, 1e-3)
        assert abs(chi - fd) <= 1e-6 * max(1.0, chi)


@pytest.mark.parametrize(
    "build",
    [lambda: dicke(16, 12, 2.0, 1.0, 1.0, 1.0), lambda: tfim(10, 1.0, 1.0, 1.0)],
    ids=["dicke_16", "tfim_10"],
)
def test_chi_f_fd_on_block_families_at_scale(build):
    """chi_f_fd solves and sums one block at a time: full-space Dicke at
    N = 16 (9 spin blocks of up to 221 levels, dim 13 2^16) and the chain
    at N = 10 (two parity blocks of 512) meet the spectral chi_f within
    1e-6 max(1, chi_f).  Both missed by about 4e-8 and 1e-8."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fam = build()
    assert len(fam.blocks) > 1
    chi = chi_f_spectral(fam).total
    assert abs(chi_f_fd(fam, 1e-3) - chi) <= 1e-6 * max(1.0, chi)


def test_split_adds_up_exactly():
    for fam in seeded_families(2002, 40, 2, 12, 0.1, 10.0):
        parts = chi_f_spectral(fam)
        assert parts.total == parts.classical + parts.quantum
        assert parts.classical >= 0.0
        assert parts.quantum >= 0.0


def test_quantum_part_vanishes_when_commuting():
    rng = np.random.default_rng(55)
    d = np.diag(rng.normal(size=5))
    s = np.diag(rng.normal(size=5))
    fam = make_family(d, s, 1.3)
    parts = chi_f_spectral(fam)
    assert parts.quantum == pytest.approx(0.0, abs=1e-18)
    (b,) = fam.blocks
    p = b.populations
    sd = np.real(np.diagonal(b.s_eig))
    var = float(np.dot(p, (sd - np.dot(p, sd)) ** 2))
    assert parts.total == pytest.approx(0.25 * 1.3**2 * var, rel=1e-14)


def test_classical_part_is_the_variance_of_eigenspace_averages():
    """On a degenerate T the classical part comes from tr_E(S)/d_E, read
    here straight off the diagonal blocks of S in T's own basis."""
    rng = np.random.default_rng(56)
    levels = np.repeat([-0.5, 0.2, 1.0, 1.7], [2, 3, 1, 2])
    s = random_hermitian(rng, levels.size)
    beta = 1.4
    for t_dtype, s_op in ((complex, s), (float, s.real)):
        parts = chi_f_spectral(make_family(np.diag(levels).astype(t_dtype), s_op, beta))
        p = np.exp(-beta * levels) / np.exp(-beta * levels).sum()
        d = np.real(np.diagonal(s_op))
        mean = float(np.dot(p, d))
        avg = np.concatenate(
            [np.full(k, d[levels == e].mean()) for e, k in zip(*np.unique(levels, return_counts=True))]
        )
        classical = 0.25 * beta**2 * float(np.dot(p, (avg - mean) ** 2))
        assert parts.classical == pytest.approx(classical, rel=1e-12)
        assert parts.quantum > 0.0
        assert parts.total == parts.classical + parts.quantum


def test_ds2_equals_chi_f():
    for fam in seeded_families(2003, 40, 2, 12, 0.1, 10.0):
        chi = chi_f_spectral(fam).total
        assert abs(ds2_spectral(fam) - chi) <= 1e-12 * max(1.0, chi)


def test_internal_form_guard_fires_when_tightened(monkeypatch):
    # the two internal forms differ by an ulp or so on most families; with the
    # tolerance cranked below machine precision the guard must trip somewhere,
    # while the default tolerance never does; a family keeps its chi_f, so
    # the tightened call runs on a fresh build
    fired = 0
    for seed in (3, 7, 55, 91):
        for dim in (6, 10, 12):
            chi_f_spectral(random_pair(dim, seed, 1.0, 1.0, 2.0))
            with monkeypatch.context() as tight:
                tight.setattr(fidsus.fidelity, "CHI_INTERNAL_REL", 1e-18)
                try:
                    chi_f_spectral(random_pair(dim, seed, 1.0, 1.0, 2.0))
                except CrossCheckError as err:
                    assert err.check == "chi_f_forms"
                    fired += 1
    assert fired >= 3


def test_quadrature_guard_fires(monkeypatch):
    """chi_FG's spectral sum and its quadrature differ by rounding only: a
    tolerance below machine precision trips the guard somewhere, and so
    does a two-point function scaled by 1 + 1e-5 at the default one.  A
    family keeps its G grid, so the scaled G runs on fresh builds."""

    def families():
        seeds, dims = (3, 7, 55), (6, 12)
        return [random_pair(dim, seed, 1.0, 1.0, 2.0) for seed in seeds for dim in dims]

    fired = 0
    with monkeypatch.context() as tight:
        tight.setattr(fidsus.fidelity, "QUADRATURE_AGREEMENT_REL", 1e-18)
        for fam in families():
            try:
                chi_fg_integral(fam)
            except CrossCheckError as err:
                assert err.check == "chi_fg_quadrature"
                fired += 1
    assert fired >= 3
    fams = families()
    real = fidsus.fidelity.correlation_G
    monkeypatch.setattr(
        fidsus.fidelity, "correlation_G", lambda fam, tau: (1.0 + 1e-5) * real(fam, tau)
    )
    for fam in fams:
        with pytest.raises(CrossCheckError) as err:
            chi_fg_integral(fam)
        assert err.value.check == "chi_fg_quadrature"


def test_degenerate_limit_continuous():
    flat = chi_f_spectral(single_spin(0.0))
    assert flat.total == pytest.approx(0.25, abs=1e-15)
    assert flat.degenerate_pair_count == 1
    near = chi_f_spectral(single_spin(1e-9)).total
    assert near == pytest.approx(0.25, abs=1e-9)


def test_chi_f_fd_step_validation():
    fam = random_pair(3, 1, 1.0, 1.0, 1.0)
    for h in (0.0, -1e-3, 0.2):
        with pytest.raises(ValueError):
            chi_f_fd(fam, h)


# ---------------------------------------------------------------------------
# Green's-function variant


def test_chi_fg_spectral_vs_integral():
    for fam in seeded_families(2004, 30, 2, 10, 0.1, 8.0):
        fg = chi_fg_spectral(fam)
        assert abs(fg - chi_fg_integral(fam)) <= 1e-9 * max(1.0, fg)


@pytest.fixture
def g_calls(monkeypatch):
    """Record the family of every ``correlation_G`` call the quadrature
    oracles make."""
    calls = []
    real = fidsus.fidelity.correlation_G

    def counted(fam, tau):
        calls.append(fam)
        return real(fam, tau)

    monkeypatch.setattr(fidsus.fidelity, "correlation_G", counted)
    return calls


def test_both_quadratures_read_one_G_grid(g_calls):
    """chi_fg_integral and bd_integral_oracle share one correlation_G call
    per family, kept read-only; repeating either makes no new call."""
    fam = random_pair(7, 21, 1.0, 1.0, 1.3)
    first = chi_fg_integral(fam), bd_integral_oracle(fam)
    assert (chi_fg_integral(fam), bd_integral_oracle(fam)) == first
    assert g_calls == [fam]
    taus, g = fam.memo["_half_circle_G"]
    assert taus.shape == g.shape == (64,)
    assert 0.0 < taus.min() and taus.max() < 0.5 * fam.beta
    for arr in (taus, g):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_a_family_at_another_beta_recomputes_its_quadratures(g_calls):
    """family_at_beta starts with an empty memo: its quadratures take their
    own G grid and match its own spectral sums."""
    fam = random_pair(6, 22, 1.0, 1.0, 0.7)
    bound_report(fam, check_chi_n=False)
    chi_fg_integral(fam)
    hot = family_at_beta(fam, 3.1)
    assert not hot.memo
    fg, bd = chi_fg_integral(hot), bd_integral_oracle(hot)
    assert g_calls == [fam, hot]
    assert abs(fg - chi_fg_spectral(hot)) <= 1e-12 * max(1.0, fg)
    assert abs(bd - bd_inner_product(hot)) <= 1e-12 * max(1.0, bd)
    assert chi_fg_spectral(hot) != chi_fg_spectral(fam)


def test_gauss_legendre_rule_is_built_once_and_read_only():
    x, w = _gauss_legendre_64()
    assert _gauss_legendre_64()[0] is x
    assert x.shape == w.shape == (64,)
    ref_x, ref_w = np.polynomial.legendre.leggauss(64)
    np.testing.assert_array_equal(x, ref_x)
    np.testing.assert_array_equal(w, ref_w)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_chi_fg_between_half_and_full_ds2():
    for fam in seeded_families(2005, 40, 2, 12, 0.1, 10.0):
        fg = chi_fg_spectral(fam)
        d2 = ds2_spectral(fam)
        assert 0.5 * d2 - 1e-12 <= fg <= d2 + 1e-12
        assert fg <= chi_f_spectral(fam).total + 1e-12


# ---------------------------------------------------------------------------
# density derivative and expansion structure


def _block_families():
    """A tfim chain (two parity blocks) and full-space Dicke (spin blocks
    with copies)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        return [tfim(4, 1.0, 0.7, 1.5), dicke(3, 6, 2.0, 1.0, 1.0, 1.2)]


def test_rho_prime_traceless_hermitian():
    for fam in seeded_families(2006, 20, 2, 9, 0.2, 6.0) + _block_families():
        rp = rho_prime(fam)
        assert len(rp) == len(fam.blocks)
        assert abs(sum(b.copies * np.trace(r) for b, r in zip(fam.blocks, rp))) <= 1e-12
        for r in rp:
            np.testing.assert_allclose(r, r.conj().T, atol=1e-14)


def test_rho_prime_vs_central_difference():
    h = 1e-4
    for fam in [random_pair(5, 33, 1.0, 1.0, 1.5)] + _block_families():
        plus, minus = perturbed_density(fam, h), perturbed_density(fam, -h)
        for r, p, m in zip(rho_prime(fam), plus, minus):
            np.testing.assert_allclose(r, (p - m) / (2.0 * h), atol=5e-8)


def test_perturbed_density_is_density():
    for fam in [random_pair(6, 44, 1.0, 1.0, 2.0)] + _block_families():
        for h in (-0.05, 0.01, 0.08):
            rho = perturbed_density(fam, h)
            assert len(rho) == len(fam.blocks)
            trace = sum(b.copies * np.trace(r) for b, r in zip(fam.blocks, rho))
            assert trace.real == pytest.approx(1.0, abs=1e-12)
            assert min(np.linalg.eigvalsh(r).min() for r in rho) >= -1e-13


# ---------------------------------------------------------------------------
# ground-state limit


def test_ground_state_requires_gap():
    t = np.diag([0.0, 0.0, 1.0]).astype(complex)
    fam = make_family(t, np.eye(3), 1.0)
    with pytest.raises(DegenerateGroundStateError):
        chi_f_ground_state(fam)


def test_ground_state_of_a_block_family():
    """The ground state lies in one block: the limit is read there and
    matches the dense direct sum.  Its level is degenerate, and the limit
    refused, when its block has two copies or another block holds it too."""
    s2 = np.array([[0.3, 1.0], [1.0, -0.3]])
    s3 = np.array([[0.0, 0.5, 0.2], [0.5, 1.0, 0.0], [0.2, 0.0, -1.0]])
    t2, t3 = np.diag([0.5, 1.5]), np.diag([0.0, 1.0, 2.5])
    fam = block_family([(t2, s2, 2), (t3, s3, 1)], 1.0)
    dense = make_family(block_diag(t2, t2, t3), block_diag(s2, s2, s3), 1.0)
    assert chi_f_ground_state(fam) == pytest.approx(chi_f_ground_state(dense), rel=1e-14)
    for blocks in ([(t3, s3, 2)], [(t3, s3, 1), (t2 - 0.5 * np.eye(2), s2, 1)]):
        with pytest.raises(DegenerateGroundStateError):
            chi_f_ground_state(block_family(blocks, 1.0))
