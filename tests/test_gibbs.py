"""Thermal-state construction and imaginary-time correlators."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from conftest import (
    all_levels,
    clustered_families,
    clustered_stacks,
    complex_sector_family,
    random_hermitian,
)
from fidsus.bounds import double_commutator_direct
from fidsus.config import DIMENSION_BUDGET
from fidsus.errors import (
    CutoffConvergenceWarning,
    DimensionBudgetError,
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NonPositiveBetaError,
    NotHermitianError,
    NotSquareError,
    TauOutOfRangeError,
)
from fidsus.gibbs import (
    _displaced_spectra,
    _perturbed_spectrum,
    block_family,
    correlation_G,
    family_at_beta,
    make_families,
    make_family,
    thermal_average,
)
from fidsus.linalg import eig_hermitian, validate_hermitian
from fidsus.models import dicke, kondo_toy, random_pair, tfim


def _unperturbed(t, beta):
    """The family of T with S = 0: its Gibbs state alone."""
    return make_family(t, np.zeros(np.shape(t)), beta)


def test_two_level_partition_function():
    ens = _unperturbed(np.diag([0.0, 1.0]).astype(complex), beta=2.0)
    assert ens.log_z == pytest.approx(np.log(1.0 + np.exp(-2.0)), abs=1e-15)
    p = ens.blocks[0].populations
    np.testing.assert_allclose(
        p, [1.0, np.exp(-2.0)] / (1.0 + np.exp(-2.0)), rtol=1e-15
    )


def test_populations_normalized_and_log_consistent():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(2, 14))
        beta = float(10.0 ** rng.uniform(-2, 2))
        (b,) = _unperturbed(random_hermitian(rng, dim), beta).blocks
        assert b.populations.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(b.populations >= 0.0)
        np.testing.assert_allclose(
            np.exp(b.log_populations), b.populations, atol=1e-300, rtol=1e-13
        )
        # log populations always finite, even if populations underflow
        assert np.all(np.isfinite(b.log_populations))


def test_extreme_beta_no_overflow():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 6)
    ens = _unperturbed(h, beta=1e8)
    assert np.isfinite(ens.log_z)
    assert ens.blocks[0].populations[0] == pytest.approx(1.0, abs=1e-12)
    assert ens.underflow_count > 0
    cold = _unperturbed(h, beta=1e-8)
    np.testing.assert_allclose(cold.blocks[0].populations, np.full(6, 1 / 6), rtol=1e-6)


def test_beta_validation():
    for beta in (0.0, -1.0, np.nan):
        with pytest.raises(NonPositiveBetaError):
            _unperturbed(np.eye(2), beta)


def test_thermal_average_against_expm():
    rng = np.random.default_rng(11)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        t = random_hermitian(rng, dim)
        s = random_hermitian(rng, dim)
        beta = float(rng.uniform(0.2, 3.0))
        fam = make_family(t, s, beta)
        w = expm(-beta * t)
        ref = np.real(np.trace(w @ s) / np.trace(w))
        assert thermal_average(fam, [fam.blocks[0].s_eig]) == pytest.approx(ref, abs=1e-11)
        assert fam.s_mean == pytest.approx(ref, abs=1e-11)


def test_correlation_time_reversal_symmetry():
    rng = np.random.default_rng(13)
    fam = make_family(random_hermitian(rng, 5), random_hermitian(rng, 5), 2.3)
    for tau in (0.0, 0.31, 1.0, 1.9):
        assert correlation_G(fam, tau) == pytest.approx(
            correlation_G(fam, fam.beta - tau), rel=1e-12, abs=1e-14
        )


_EPS = float(np.finfo(float).eps)


def _kms_gap(fam, taus):
    """max |G(tau) - G(beta - tau)| / max(1, |G(tau)|), and the bound it must
    keep: 1e-13 plus the rounding of (beta - tau)/beta, an ulp of 1 that
    moves the exponent of each pair by eps beta |T_m - T_n|."""
    g, mirror = correlation_G(fam, taus), correlation_G(fam, fam.beta - taus)
    levels = all_levels(fam)
    spread = float(levels[-1] - levels[0])
    gap = float(np.max(np.abs(g - mirror) / np.maximum(1.0, np.abs(g))))
    return gap, 1e-13 + 2.0 * _EPS * fam.beta * spread


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    dim=st.integers(2, 12),
    seed=st.integers(0, 2**31 - 1),
    beta=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    lams=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_correlation_kms_symmetry(dim, seed, beta, lams):
    """G(tau) = G(beta - tau), the identity that lets one grid on [0, beta/2]
    serve both quadrature oracles, on random pairs at beta 1e-3 to 1e3."""
    fam = random_pair(dim, seed, 1.0, 1.0, beta)
    gap, tol = _kms_gap(fam, np.array(lams) * fam.beta)
    assert gap <= tol


@pytest.mark.parametrize(
    "build",
    [lambda: dicke(3, 12, 2.0, 1.0, 1.0, 1.3), lambda: tfim(5, 1.0, 0.7, 1.5)],
    ids=["dicke", "tfim"],
)
def test_correlation_kms_symmetry_on_block_families(build):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fam = build()
    assert len(fam.blocks) > 1
    gap, tol = _kms_gap(fam, np.linspace(0.0, fam.beta, 17))
    assert gap <= tol


def test_correlation_at_zero_is_variance():
    rng = np.random.default_rng(14)
    fam = make_family(random_hermitian(rng, 6), random_hermitian(rng, 6), 1.1)
    (b,) = fam.blocks
    s2 = thermal_average(fam, [b.s_eig @ b.s_eig])
    var = s2 - fam.s_mean**2
    assert correlation_G(fam, 0.0) == pytest.approx(var, rel=1e-12)


def test_correlation_against_heisenberg_picture():
    rng = np.random.default_rng(15)
    t = random_hermitian(rng, 5)
    s = random_hermitian(rng, 5)
    beta = 1.7
    fam = make_family(t, s, beta)
    w = expm(-beta * t)
    z = np.real(np.trace(w))
    for tau in (0.2, 0.8, 1.5):
        s_tau = expm(tau * t) @ s @ expm(-tau * t)
        ref = np.real(np.trace(w @ s_tau @ s)) / z - fam.s_mean**2
        assert correlation_G(fam, tau) == pytest.approx(ref, rel=1e-9, abs=1e-11)


def test_correlation_tau_range():
    fam = make_family(np.diag([0.0, 1.0]), np.eye(2), 1.0)
    for tau in (-0.1, 1.1, np.nan, np.inf, [0.5, np.nan]):
        with pytest.raises(TauOutOfRangeError, match=r"in \[0, beta"):
            correlation_G(fam, tau)
    malformed = (
        [[0.1, 0.2]],
        np.array([[0.2]]),
        [0.1, None],
        [[0.1], [0.2, 0.3]],
        np.array([0.2j]),
        "0.5",
    )
    for tau in malformed:
        with pytest.raises(TauOutOfRangeError, match="1-d sequence of floats"):
            correlation_G(fam, tau)


def _real_and_complex_pairs(seed, dim):
    rng = np.random.default_rng(seed)
    t = random_hermitian(rng, dim)
    s = random_hermitian(rng, dim)
    return [(t.real, s.real), (t, s)]


def test_family_at_beta_matches_fresh_build():
    """Moving a family to another beta gives, bit for bit, the family a
    fresh build at that beta gives, for a real and a complex pair."""
    for t, s in _real_and_complex_pairs(16, 7):
        base = make_family(t, s, 0.7, particle_count=3)
        moved = family_at_beta(base, 2.9)
        fresh = make_family(t, s, 2.9, particle_count=3)
        (got,), (want,) = moved.blocks, fresh.blocks
        for name in ("log_populations", "populations", "s_eig", "levels"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        for name in ("beta", "log_z", "s_mean", "underflow_count", "particle_count"):
            assert getattr(moved, name) == getattr(fresh, name)
        assert moved.particle_count == 3
        assert got.s_eig.dtype == (np.float64 if np.isrealobj(t) else np.complex128)


def test_family_at_beta_shares_the_beta_independent_state():
    """Each block's levels, S, copies and sectors and the chi_N oracle's
    solves pass on unchanged: the new family holds the same objects, and
    so is sign-odd with it."""
    base = dicke(2, 8, 2.0, 1.0, 0.5, 1.3)
    moved = family_at_beta(base, 0.4)
    assert len(moved.blocks) == len(base.blocks) == 2
    for new, old in zip(moved.blocks, base.blocks):
        assert new.levels is old.levels and new.s_pairs is old.s_pairs
        assert new.copies == old.copies and new.sectors is old.sectors
    assert moved.shared is base.shared
    assert moved.sign_odd is base.sign_odd


@pytest.mark.parametrize(
    "build, sizes",
    [
        (lambda: dicke(3, 12, 2.0, 1.0, 1.0, 1.0), [(52, 1), (26, 2)]),
        (lambda: tfim(5, 1.0, 0.7, 1.5), [(16, 1), (16, 1)]),
        (lambda: kondo_toy(1, [0.0, 0.5], 0.8, 1.5), [(32, 1)]),
        (lambda: random_pair(7, 3, 1.0, 1.0, 1.0), [(7, 1)]),
        (lambda: _unperturbed(np.diag([0.0, 1.0, 2.0]), 1.0), [(3, 1)]),
    ],
    ids=["dicke", "tfim", "kondo_toy", "random", "zero"],
)
def test_builders_declare_their_blocks(build, sizes):
    """Each builder passes its symmetry blocks with their copies: the
    sizes and copies are as declared, they add up to ``dim``, each block
    holds its S on its own ascending levels, and the populations of every
    copy of every block sum to one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fam = build()
    assert [(b.levels.size, b.copies) for b in fam.blocks] == sizes
    assert fam.dim == sum(n * c for n, c in sizes)
    for b in fam.blocks:
        assert b.s_eig.shape == (b.levels.size,) * 2
        assert np.all(np.diff(b.levels) >= 0.0)
    total = sum(b.copies * np.sum(b.populations) for b in fam.blocks)
    assert total == pytest.approx(1.0, rel=1e-13)


def test_unperturbed_spectrum_repeats_the_family_weights():
    """At h = 0 the displaced-field route reproduces each block's own levels
    and log weights exactly, for one dense pair and for a block family
    with copies: both weights come from one routine."""
    fams = [make_family(t, s, 1.3) for t, s in _real_and_complex_pairs(18, 6)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fams.append(dicke(3, 6, 2.0, 1.0, 1.0, 1.3))
    for fam in fams:
        solved, lps = _perturbed_spectrum(fam, 0.0)
        assert len(solved) == len(lps) == len(fam.blocks)
        for b, (w, _), lp in zip(fam.blocks, solved, lps):
            np.testing.assert_array_equal(w, b.levels)
            np.testing.assert_array_equal(lp, b.log_populations)


@pytest.mark.parametrize(
    "build",
    [
        lambda: dicke(3, 6, 2.0, 1.0, 1.0, 1.3),
        lambda: complex_sector_family(23, 1.3),
        lambda: make_family(*_real_and_complex_pairs(19, 7)[0], 1.3),
        lambda: make_family(*_real_and_complex_pairs(19, 7)[1], 1.3),
    ],
    ids=["sectors", "complex_sectors", "real_whole", "complex_whole"],
)
@pytest.mark.parametrize("h", [0.37, -0.05])
def test_displaced_spectra_match_the_validated_whole_matrix(build, h):
    """T_b - h S_b written from the stored levels and S (the rectangle and
    its conjugate transpose where the block has sectors) solves to the
    levels and S diagonal of the matrix formed whole and validated."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fam = build()
    kinds = {(b.sectors is None, b.s_pairs.dtype.kind) for b in fam.blocks}
    assert len(kinds) == 1
    for b, (got_w, got_u) in zip(fam.blocks, _displaced_spectra(fam, h)):
        s = b.s_eig
        want_w, want_u = eig_hermitian(validate_hermitian(np.diag(b.levels) - h * s))
        assert got_u.dtype == want_u.dtype
        tol = 1e-12 * max(1.0, float(np.max(np.abs(want_w))))
        assert np.max(np.abs(got_w - want_w)) <= tol
        diags = [np.einsum("ij,ij->j", u.conj(), s @ u).real for u in (got_u, want_u)]
        assert np.max(np.abs(diags[0] - diags[1])) <= 1e-12 * max(1.0, np.max(np.abs(diags[1])))


def test_make_family_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        make_family(np.eye(3), np.eye(2), 1.0)


def test_a_block_with_no_state_is_refused():
    """An empty block is refused by name, alone or after a good one; an
    empty sector is valid."""
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError, match="at least one state"):
        make_family(empty, empty, 1.0)
    with pytest.raises(ValueError, match="at least one state"):
        block_family([(np.eye(2), np.eye(2), 1), (empty, empty, 2)], 1.0)
    t, s = np.diag([0.0, 1.0]), np.zeros((2, 2))
    (b,) = block_family([(t, s, 1, np.ones(2, dtype=bool))], 1.0).blocks
    assert b.sectors[1].size == 0


def test_particle_count_is_an_integer():
    """``particle_count`` is read as an integer, as the copies are: a
    fractional count is refused, and a numpy integer is kept as an int."""
    t, s = np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(TypeError):
        make_family(t, s, 1.0, particle_count=1.5)
    with pytest.raises(ValueError):
        make_family(t, s, 1.0, particle_count=0)
    assert type(make_family(t, s, 1.0, particle_count=np.int64(3)).particle_count) is int


# two copies of a 2-level block and one 3-level block, and their dense
# direct sum over every copy
_T2, _S2 = np.diag([0.0, 1.0]), np.array([[0.5, 1.0], [1.0, -0.5]])
_T3 = np.diag([0.3, 0.7, 2.0])
_S3 = np.array([[1.0, 0.2j, 0.0], [-0.2j, 2.0, 0.4], [0.0, 0.4, 3.0]])
_TWO_BLOCKS = [(_T2, _S2, 2), (_T3, _S3, 1)]
_DIRECT_SUM = (block_diag(_T2, _T2, _T3), block_diag(_S2, _S2, _S3))


def test_thermal_average_shape_check():
    """Each block's operator must have its block's shape."""
    fam = block_family(_TWO_BLOCKS, 1.1)
    for ops in ([np.eye(2), np.eye(2)], [np.eye(2), np.zeros((3, 2))], [np.eye(3), np.eye(3)]):
        with pytest.raises(DimensionMismatchError, match="the blocks have sizes"):
            thermal_average(fam, ops)


def test_thermal_average_takes_one_operator_per_block():
    """One operator per block, weighted by its copies, is the average of
    their direct sum over every copy; fewer or more operators raise."""
    fam = block_family(_TWO_BLOCKS, 1.1)
    dense = make_family(*_DIRECT_SUM, 1.1)
    squares = [b.s_eig @ b.s_eig for b in fam.blocks]
    (d,) = dense.blocks
    want = thermal_average(dense, [d.s_eig @ d.s_eig])
    assert thermal_average(fam, squares) == pytest.approx(want, rel=1e-14)
    assert thermal_average(fam, iter(squares)) == thermal_average(fam, squares)
    for wrong in (squares[:1], squares + [np.eye(3)], []):
        with pytest.raises(DimensionMismatchError, match="operator"):
            thermal_average(fam, wrong)


def test_thermal_average_rejects_a_nan_entry():
    """A NaN Hermiticity defect passed the old `asym > tol` test, and the
    average came back 0.0."""
    a = np.eye(3)
    a[0, 1] = np.nan
    with pytest.raises(NotHermitianError, match="defect nan"):
        thermal_average(random_pair(3, 0), [a])


def test_thermal_average_residue_warning_is_relative_to_the_norm():
    """An imaginary residue warns above 1e-12 max(1, ||A||_F): a genuine
    one still does, rounding on a large-norm operator does not."""
    fam = make_family(np.diag([0.0, 1.0]), np.eye(2), 1.0)
    residue = 1e-11j * np.eye(2)
    with pytest.warns(UserWarning, match="imaginary residue"):
        thermal_average(fam, [np.eye(2) + residue])
    rng = np.random.default_rng(8)
    big = make_family(random_hermitian(rng, 6), random_hermitian(rng, 6, 1e6), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert thermal_average(fam, [1e6 * np.eye(2) + residue]) == pytest.approx(1e6)
        double_commutator_direct(big)


@pytest.mark.parametrize("dim", [7, 128])
def test_correlation_on_a_node_list_matches_the_per_tau_formula(dim):
    """Each value of a tau list equals, bit for bit, the per-tau formula.

    At dim 128 the 64 nodes are evaluated in several blocks.
    """
    rng = np.random.default_rng(16)
    fam = make_family(random_hermitian(rng, dim), random_hermitian(rng, dim), 1.9)
    taus = 0.5 * fam.beta * (np.polynomial.legendre.leggauss(64)[0] + 1.0)

    def reference(tau):
        lam = tau / fam.beta
        (b,) = fam.blocks
        lp = b.log_populations
        weights = np.exp((1.0 - lam) * lp[:, None] + lam * lp[None, :])
        np.fill_diagonal(weights, 0.0)
        off = float(np.sum(weights * np.abs(b.s_eig) ** 2))
        delta_d = np.real(np.diagonal(b.s_eig)) - fam.s_mean
        return off + float(np.dot(b.populations, delta_d**2))

    ref = np.array([reference(float(t)) for t in taus])
    np.testing.assert_array_equal(correlation_G(fam, taus), ref)
    scalars = [correlation_G(fam, t) for t in taus]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_array_equal(scalars, ref)
    with pytest.raises(TauOutOfRangeError):
        correlation_G(fam, [0.0, 1.01 * fam.beta])


def test_correlation_memory_is_bounded_by_blocking():
    """64 nodes at dim 256 never hold a (64, 256, 256) temporary (32 MiB)."""
    rng = np.random.default_rng(17)
    fam = make_family(random_hermitian(rng, 256), random_hermitian(rng, 256), 2.0)
    taus = np.linspace(0.0, fam.beta, 64)
    tracemalloc.start()
    try:
        correlation_G(fam, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@settings(derandomize=True, max_examples=80, deadline=None)
@given(fam=clustered_families(), lam=st.floats(0.0, 1.0))
def test_correlation_properties_on_clustered_spectra(fam, lam):
    """G is finite, nonnegative, symmetric about beta/2 and largest at the
    endpoints (a positive sum of exponentials in tau is convex)."""
    tau = lam * fam.beta
    g0, g_tau, g_mirror, g_beta = correlation_G(
        fam, [0.0, tau, fam.beta - tau, fam.beta]
    )
    assert np.all(np.isfinite([g0, g_tau, g_mirror, g_beta]))
    assert min(g0, g_tau, g_mirror, g_beta) >= 0.0
    assert g_tau == pytest.approx(g_mirror, rel=1e-12, abs=1e-14)
    assert g_beta == pytest.approx(g0, rel=1e-12, abs=1e-14)
    assert g_tau <= g0 * (1.0 + 1e-12) + 1e-14


def test_a_block_above_the_budget_is_refused_before_it_is_read():
    """The budget holds for dense input too: a block of dimension 4097 is
    refused from its shape, before validation allocates a copy.  The
    zero-stride input occupies one float, so the traced peak stays tiny."""
    big = np.broadcast_to(0.0, (DIMENSION_BUDGET + 1,) * 2)
    small = np.eye(2)
    tracemalloc.start()
    try:
        for blocks in ([(big, big, 1)], [(small, small, 1), (small, big, 1)]):
            with pytest.raises(DimensionBudgetError):
                block_family(blocks, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(DimensionBudgetError):
        make_family(big, big, 1.0)


def _assert_members_match(t, s, betas):
    """`make_families` builds each member bit for bit as `make_family`
    builds it alone, dtypes included."""
    fams = make_families(t, s, betas)
    assert len(fams) == len(betas)
    for k, fam in enumerate(fams):
        alone = make_family(t[k], s[k], betas[k])
        (got,), (want,) = fam.blocks, alone.blocks
        for name in ("levels", "s_pairs", "log_populations", "populations"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (k, name)
        assert (got.sectors is None) == (want.sectors is None), k
        if want.sectors is not None:
            assert all(np.array_equal(x, y) for x, y in zip(got.sectors, want.sectors))
        scalars = ("beta", "log_z", "s_mean", "s_variance", "underflow_count", "dim")
        assert [getattr(fam, a) for a in scalars] == [getattr(alone, a) for a in scalars], k


def _bipartite(rng, n, real):
    """A (T, S) pair that `_parity` splits into sectors, the even and the
    odd states: T links states of one parity only, S of opposite ones."""
    even = np.arange(n) % 2 == 0
    t, s = (random_hermitian(rng, n) for _ in range(2))
    t[even[:, None] != even] = 0.0
    s[even[:, None] == even] = 0.0
    return (t.real, s.real) if real else (t, s)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n", range(1, 17))
def test_make_families_matches_make_family_member_by_member(n, real):
    """A stack of six: GUE members, one whose T has repeated levels, one
    solved by sectors (from n = 2) and one at beta = 800, where
    populations underflow; a complex stack also holds a member with no
    imaginary part, which `make_family` stores as float64."""
    rng = np.random.default_rng(n)
    pairs = [tuple(random_hermitian(rng, n) for _ in range(2)) for _ in range(6)]
    q, _ = np.linalg.qr(random_hermitian(rng, n))
    pairs[1] = (q @ np.diag(np.repeat([-1.0, 0.5], n)[:n]) @ q.conj().T, pairs[1][1])
    if n > 1:
        pairs[2] = _bipartite(rng, n, real)
    if real:
        pairs = [(a.real, b.real) for a, b in pairs]
    else:
        pairs[4] = (pairs[4][0].real, pairs[4][1].real)
    t, s = (np.stack(x) for x in zip(*pairs))
    betas = [0.3, 1.0, 2.0, 800.0, 7.0, 0.1]
    _assert_members_match(t, s, betas)
    fams = make_families(t, s, betas)
    assert (fams[2].blocks[0].sectors is not None) == (n > 1)
    assert fams[3].underflow_count > 0 or n == 1


def test_make_families_of_one_member_and_of_none():
    rng = np.random.default_rng(3)
    t, s = random_hermitian(rng, 5), random_hermitian(rng, 5)
    _assert_members_match(t[None], s[None], [2.5])
    empty = np.zeros((0, 5, 5), dtype=complex)
    assert make_families(empty, empty, []) == []


def test_make_families_of_sector_members_only():
    """A stack whose every member has sectors makes no stacked solve."""
    rng = np.random.default_rng(4)
    t, s = (np.stack(x) for x in zip(*(_bipartite(rng, 6, False) for _ in range(3))))
    _assert_members_match(t, s, [0.5, 1.0, 3.0])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(stack=clustered_stacks())
def test_make_families_on_clustered_spectra(stack):
    """Clustered and exactly degenerate levels, real, complex and mixed
    stacks, beta from 1e-3 to 1e3."""
    _assert_members_match(*stack)


def _stack(n=4, count=5):
    rng = np.random.default_rng(8)
    return (np.stack([random_hermitian(rng, n) for _ in range(count)]) for _ in range(2))


def test_make_families_names_a_failing_member():
    """A NaN or an asymmetric member fails as it would alone, by the same
    error type, and the message names the member."""
    t, s = _stack()
    bad = t.copy()
    bad[3, 1, 2] = np.nan
    with pytest.raises(NonFiniteError, match="member 3: "):
        make_families(bad, s, [1.0] * 5)
    bad = s.copy()
    bad[2, 0, 1] += 1e-3
    with pytest.raises(NotHermitianError, match="member 2: asymmetry"):
        make_families(t, bad, [1.0] * 5)


def test_make_families_checks_the_shapes():
    t, s = _stack()
    with pytest.raises(DimensionMismatchError):
        make_families(t, s[:4], [1.0] * 5)
    with pytest.raises(DimensionMismatchError):
        make_families(t, s[:, :3, :3], [1.0] * 5)
    with pytest.raises(DimensionMismatchError, match="betas"):
        make_families(t, s, [1.0] * 4)
    with pytest.raises(NotSquareError):
        make_families(t[0], s[0], [1.0])
    with pytest.raises(NotSquareError):
        make_family(t, s, 1.0)
    with pytest.raises(ValueError, match="at least one state"):
        make_families(np.zeros((2, 0, 0)), np.zeros((2, 0, 0)), [1.0, 1.0])


def test_an_over_budget_stack_is_refused_before_it_is_read():
    """The budget bounds each member's side, not the stack: a stack of
    side 4097 is refused from its shape, before validation copies it."""
    big = np.broadcast_to(0.0, (3,) + (DIMENSION_BUDGET + 1,) * 2)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetError):
            make_families(big, big, [1.0] * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    count = DIMENSION_BUDGET + 1
    assert len(make_families(*_stack(2, count), [1.0] * count)) == count


def _stack_with_sectors():
    """Five complex members, member 1 solved alone by its sectors."""
    t, s = _stack()
    t[1], s[1] = _bipartite(np.random.default_rng(9), 4, False)
    return t, s


@pytest.mark.parametrize("corrupt", ["basis", "nan_level"])
def test_a_stack_whose_later_member_fails_its_solve(monkeypatch, corrupt):
    """An eigh result wrong in one later member only, a rolled basis or
    a NaN level, fails the stacked solve with the member's index in the
    input, also behind a member solved alone."""
    eigh = np.linalg.eigh

    def corrupted(matrix):
        evals, basis = eigh(matrix)
        if matrix.ndim == 3:
            if corrupt == "basis":
                basis[3] = np.roll(basis[3], 1, axis=1)
            else:
                evals[3, 1] = np.nan
        return evals, basis

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    for stack in (_stack(), _stack_with_sectors()):
        with np.errstate(invalid="ignore"), pytest.raises(NoConvergenceError, match="member 3: "):
            make_families(*stack, [1.0] * 5)


def test_a_member_solved_alone_names_itself(monkeypatch):
    """A member solved alone by its sectors fails with its index too."""
    eigh = np.linalg.eigh

    def corrupted(matrix):
        evals, basis = eigh(matrix)
        return evals, (basis if matrix.ndim == 3 else np.roll(basis, 1, axis=1))

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(NoConvergenceError, match="member 1: eigendecomposition residual"):
        make_families(*_stack_with_sectors(), [1.0] * 5)
