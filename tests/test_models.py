"""Model builders: closed forms, invariants, validation, and the registry."""

import json
import math
import warnings

import numpy as np
import pytest

import fidsus.fidelity
import fidsus.models
from conftest import all_levels, same_blocks
from fidsus.bounds import bound_report
from fidsus.errors import (
    CrossCheckError,
    CutoffConvergenceWarning,
    DimensionBudgetError,
    ModelSchemaError,
    ModelParseError,
    NoTransitionError,
    NotHermitianError,
)
from fidsus.fidelity import chi_f_fd, chi_f_spectral, rho_prime
from fidsus.gibbs import block_family, make_family, thermal_average
from fidsus.models import (
    MODEL_KINDS,
    KondoBoundRecord,
    ModelSpec,
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

# ---------------------------------------------------------------------------
# single spin


def test_single_spin_structure():
    fam = single_spin(0.7)
    assert fam.dim == 2
    assert fam.beta == 1.0
    np.testing.assert_allclose(all_levels(fam), [-0.7, 0.7], atol=1e-15)


def test_single_spin_closed_forms_match_build():
    for h3 in (0.0, 0.4, 1.0, 3.0):
        forms = single_spin_closed_forms(h3)
        chi = chi_f_spectral(single_spin(h3)).total
        assert chi == pytest.approx(forms.chi_f, abs=1e-13)


def test_single_spin_closed_forms_limits():
    z = single_spin_closed_forms(0.0)
    assert (z.chi_f, z.bd_product, z.dcomm, z.lower) == (0.25, 1.0, 0.0, 0.25)
    # even in the field
    a = single_spin_closed_forms(1.3)
    b = single_spin_closed_forms(-1.3)
    assert a == b


def test_single_spin_rejects_non_finite():
    with pytest.raises(ValueError):
        single_spin(float("nan"))


@pytest.mark.parametrize(
    "call",
    [
        lambda: dicke_tc(1.0, math.nan, 1.0),
        lambda: dicke_tc(math.inf, 1.0, 1.0),
        lambda: dicke_tc(1.0, 1.0, math.inf),
        lambda: kondo_roepstorff(math.inf, 0.5, 1),
        lambda: kondo_roepstorff(1.0, math.nan, 1),
    ],
    ids=["tc_eps_nan", "tc_omega_inf", "tc_lam_inf", "kondo_beta_inf", "kondo_j_nan"],
)
def test_closed_forms_reject_non_finite(call):
    """These returned NaN fields instead of raising."""
    with pytest.raises(ValueError, match="finite"):
        call()


# ---------------------------------------------------------------------------
# atom-field model


def test_dicke_one_atom_sector_equals_full():
    full = dicke(1, 10, 1.0, 1.0, 0.8, 1.5, symmetric_sector=False)
    sector = dicke(1, 10, 1.0, 1.0, 0.8, 1.5, symmetric_sector=True)
    assert full.dim == sector.dim == 22
    chi_a = chi_f_spectral(full).total
    chi_b = chi_f_spectral(sector).total
    assert chi_a == pytest.approx(chi_b, rel=1e-12)


def test_dicke_budget_enforced():
    """The budget bounds the largest block, spin N/2, of the full space as
    of the sector, never the whole space: rho' and the finite-difference
    chi_F run block by block on a family of dim 7168."""
    with pytest.raises(DimensionBudgetError):
        dicke(9, 500, 1.0, 1.0, 1.0, 1.0)  # 501 boson levels * 10 spin states
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fam = dicke(10, 6, 1.0, 1.0, 1.0, 1.0)  # blocks of at most 77, dim 7168
    rep = bound_report(fam)
    assert fam.dim == 7 * 2**10 and rep.sandwich_ok
    rp = rho_prime(fam)
    assert [r.shape[0] for r in rp] == [b.levels.size for b in fam.blocks]
    assert abs(sum(b.copies * np.trace(r) for b, r in zip(fam.blocks, rp))) <= 1e-12
    assert abs(chi_f_fd(fam, 1e-3) - rep.chi_f) <= 1e-6 * max(1.0, rep.chi_f)
    with pytest.raises(DimensionBudgetError):
        dicke(2, 2000, 1.0, 1.0, 1.0, 1.0, symmetric_sector=True)


def test_dicke_argument_validation():
    with pytest.raises(ValueError):
        dicke(0, 8, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        dicke(1, 1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        dicke(1, 8, -1.0, 1.0, 1.0, 1.0)


def test_dicke_low_cutoff_warns():
    with pytest.warns(CutoffConvergenceWarning):
        dicke(2, 2, 1.0, 1.0, 1.0, 2.0, symmetric_sector=True)


def test_dicke_converged_cutoff_is_quiet():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", CutoffConvergenceWarning)
        fam = dicke(2, 16, 1.0, 1.0, 1.0, 1.0, symmetric_sector=True)
    shift = dicke_cutoff_shift(fam, 2, 16, 1.0, 1.0, 1.0, 1.0, symmetric_sector=True)
    assert shift < 1e-4


def test_cutoff_probe_reads_chi_f_spectral_of_its_wider_family(monkeypatch):
    """The probe reads the wider family's `chi_f_spectral`: one pass of all
    six pair sums per block of the wider family, then one per block of
    the built family, which its report reads back.  The shift is the one
    the two `chi_f_spectral` values give, bit for bit."""
    fam, wide = (
        block_family(fidsus.models._dicke_blocks(4, n_max, 2.0, 1.0, 1.0, False), 1.3, 4)
        for n_max in (12, 16)
    )
    taken = []
    real = fidsus.fidelity._block_sums

    def counted(*args):
        taken.append(0)
        for value in real(*args):
            taken[-1] += 1
            yield value

    monkeypatch.setattr(fidsus.fidelity, "_block_sums", counted)
    shift = dicke_cutoff_shift(fam, 4, 12, 2.0, 1.0, 1.0, 1.3)
    assert taken == [6] * (len(wide.blocks) + len(fam.blocks))
    chi, chi_wide = chi_f_spectral(fam).total, chi_f_spectral(wide).total
    assert shift == abs(chi - chi_wide) / max(1.0, abs(chi))
    assert len(taken) == 2 * len(wide.blocks) + len(fam.blocks)


def test_dicke_particle_count():
    fam = dicke(3, 14, 1.0, 1.0, 0.5, 1.0, symmetric_sector=True)
    assert fam.particle_count == 3


def test_tc_implicit_solves_its_equation():
    for omega, eps, lam in [(1.0, 1.0, 1.0), (2.0, 0.5, 0.8), (1.0, 1.5, 0.7)]:
        roots = dicke_tc(omega, eps, lam)
        r = abs(eps) * omega / (4.0 * lam * lam)
        tc = roots.tc_implicit
        assert math.tanh(0.5 * abs(eps) / tc) == pytest.approx(r, abs=1e-10)
        assert roots.tc_closed_form == pytest.approx(
            0.5 * abs(eps) * math.tanh(r), rel=1e-14
        )


def test_tc_edge_cases():
    with pytest.raises(NoTransitionError):
        dicke_tc(8.0, 1.0, 1.0)
    assert dicke_tc(4.0, 1.0, 1.0).tc_implicit == 0.0
    assert dicke_tc(1.0, 0.0, 1.0).tc_implicit == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        dicke_tc(-1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# impurity model


def test_kondo_rotation_invariance_visible_from_outside():
    fam = kondo_toy(1, (0.0, 0.4), 0.6, 1.2)
    assert fam.dim == 2 * 16
    (b,) = fam.blocks
    assert thermal_average(fam, [b.s_eig]) == pytest.approx(0.0, abs=1e-12)
    s3sq = thermal_average(fam, [b.s_eig @ b.s_eig])
    assert s3sq == pytest.approx(0.25, abs=1e-10)


def test_kondo_rotation_check_rejects_an_anisotropic_impurity(monkeypatch):
    real = fidsus.models._spin_matrices

    def anisotropic(s2):
        s1, s2op, s3 = real(s2)
        return s1, s2op, 1.1 * s3

    monkeypatch.setattr(fidsus.models, "_spin_matrices", anisotropic)
    with pytest.raises(CrossCheckError) as err:
        kondo_toy(1, (0.0, 0.4), 0.6, 1.2)
    assert err.value.check == "kondo_rotation"


def test_kondo_free_spin_limit():
    # J = 0 decouples the impurity: S_3 commutes with T and the spin is
    # equidistributed, so chi_F = (beta^2/4) Var(S_3) = beta^2 s(s+1)/12
    beta = 2.0
    fam = kondo_toy(1, (0.3,), 0.0, beta)
    chi = chi_f_spectral(fam).total
    assert chi == pytest.approx(beta**2 / 16.0, rel=1e-12)
    rec = kondo_roepstorff(beta, 1e-9, 1)
    assert (4.0 / beta) * chi == pytest.approx(rec.upper, rel=1e-8)


def test_kondo_mode_count_validation():
    with pytest.raises(ValueError):
        kondo_toy(1, (), 0.5, 1.0)
    with pytest.raises(ValueError):
        kondo_toy(1, (0.0, 0.1, 0.2, 0.3), 0.5, 1.0)
    with pytest.raises(ValueError):
        kondo_toy(0, (0.0,), 0.5, 1.0)


def test_roepstorff_bracket_root():
    rec = kondo_roepstorff(1.0, 1.0, 1)
    x = rec.x_star
    assert -math.expm1(-x) / x - x / 3.0 == pytest.approx(0.0, abs=1e-11)
    assert rec.x_star == pytest.approx(1.533929875528, abs=1e-9)


def test_roepstorff_weak_coupling_pinch():
    rec = kondo_roepstorff(0.05, 0.5, 1)
    assert rec.beta_eps <= 1e-3
    assert (rec.upper - rec.lower) / rec.upper <= 2e-3
    assert rec.upper == pytest.approx(0.05 * 0.75 / 3.0, rel=1e-14)


def test_roepstorff_lower_clips_to_zero():
    rec = kondo_roepstorff(4.0, 2.0, 1)  # beta_eps well past the root
    assert rec.beta_eps > rec.x_star
    assert rec.lower == 0.0
    assert rec.upper > 0.0


# ---------------------------------------------------------------------------
# random pairs and the chain


def test_random_pair_deterministic():
    a = random_pair(6, 123, 1.0, 1.0, 1.7)
    b = random_pair(6, 123, 1.0, 1.0, 1.7)
    assert same_blocks(a, b)
    c = random_pair(6, 124, 1.0, 1.0, 1.7)
    assert not np.array_equal(all_levels(a), all_levels(c))


def test_random_pair_dim_limits():
    with pytest.raises(ValueError):
        random_pair(1, 0)
    with pytest.raises(ValueError):
        random_pair(65, 0)


def test_random_pair_zero_perturbation():
    fam = random_pair(4, 9, 1.0, 0.0, 2.0)
    assert chi_f_spectral(fam).total == 0.0
    assert bound_report(fam).upper == 0.0


def test_tfim_classical_part_vanishes():
    # S is purely off-diagonal in the Ising eigenbasis at g = 0
    fam = tfim(3, 1.0, 0.0, 1.2)
    parts = chi_f_spectral(fam)
    assert parts.classical == 0.0
    assert parts.quantum > 0.0


def test_real_models_run_in_float64():
    """Every physical model is real symmetric in its basis, so S rotated
    into its eigenbasis stays float64; GUE draws stay complex."""
    real = [
        single_spin(0.6),
        dicke(2, 6, 2.0, 1.0, 0.5, 1.0),
        dicke(2, 6, 2.0, 1.0, 0.5, 1.0, symmetric_sector=True),
        kondo_toy(1, [0.0, 0.5], 0.8, 1.5),
        tfim(3, 1.0, 0.5, 1.2),
    ]
    for fam in real:
        for b in fam.blocks:
            assert b.s_eig.dtype == np.float64
    (b,) = random_pair(5, 0).blocks
    assert b.s_eig.dtype == np.complex128


def test_tfim_metadata_and_validation():
    fam = tfim(4, 1.0, 0.7, 0.9)
    assert fam.particle_count == 4
    assert fam.dim == 16
    with pytest.raises(ValueError):
        tfim(1, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        tfim(11, 1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# matrix files


def entry(z):
    return [float(np.real(z)), float(np.imag(z))]


def matrix_json(m):
    return [[entry(z) for z in row] for row in np.asarray(m)]


def write_model(tmp_path, obj, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return p


def good_model_dict():
    t = np.array([[0.0, 0.3 - 0.1j], [0.3 + 0.1j, 1.0]])
    s = np.array([[0.5, 1.0j], [-1.0j, -0.5]])
    return {"dim": 2, "beta": 1.4, "T": matrix_json(t), "S": matrix_json(s)}


def test_file_round_trip(tmp_path):
    obj = good_model_dict()
    fam = model_from_file(write_model(tmp_path, obj))
    t = np.array([[c[0] + 1j * c[1] for c in row] for row in obj["T"]])
    s = np.array([[c[0] + 1j * c[1] for c in row] for row in obj["S"]])
    direct = make_family(t, s, 1.4)
    assert same_blocks(fam, direct)
    assert fam.particle_count == 1


def test_file_particle_count_field(tmp_path):
    obj = good_model_dict()
    obj["N"] = 3
    fam = model_from_file(write_model(tmp_path, obj))
    assert fam.particle_count == 3


@pytest.mark.parametrize(
    "mutate, err",
    [
        (lambda o: o.update(extra=1), ModelSchemaError),
        (lambda o: o.pop("S"), ModelSchemaError),
        (lambda o: o.update(dim=2.0), ModelSchemaError),
        (lambda o: o.update(dim=0), ModelSchemaError),
        (lambda o: o.update(beta=True), ModelSchemaError),
        (lambda o: o.update(N=0), ModelSchemaError),
        (lambda o: o.update(T=[[1, 2], [3, 4]]), ModelSchemaError),
        (lambda o: o["T"].__setitem__(0, [[0.0, 0.0]]), ModelSchemaError),
    ],
    ids=[
        "unknown-key",
        "missing-matrix",
        "float-dim",
        "zero-dim",
        "bool-beta",
        "zero-N",
        "bare-number-entries",
        "short-row",
    ],
)
def test_file_schema_rejections(tmp_path, mutate, err):
    obj = good_model_dict()
    mutate(obj)
    with pytest.raises(err):
        model_from_file(write_model(tmp_path, obj))


def test_file_parse_rejections(tmp_path):
    p = tmp_path / "trailing.json"
    p.write_text(json.dumps(good_model_dict()) + " {}", encoding="utf-8")
    with pytest.raises(ModelParseError):
        model_from_file(p)
    p2 = tmp_path / "nan.json"
    p2.write_text('{"dim": 2, "beta": NaN, "T": [], "S": []}', encoding="utf-8")
    with pytest.raises(ModelParseError):
        model_from_file(p2)


def test_file_hermiticity_enforced(tmp_path):
    obj = good_model_dict()
    obj["T"][0][1] = [9.0, 9.0]  # breaks T = T^dagger
    with pytest.raises(NotHermitianError):
        model_from_file(write_model(tmp_path, obj))


def test_file_top_level_must_be_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ModelSchemaError):
        model_from_file(p)


# ---------------------------------------------------------------------------
# registry dispatch


def test_registry_covers_every_kind():
    assert set(MODEL_KINDS) == {
        "single_spin",
        "dicke",
        "kondo_toy",
        "random",
        "tfim",
        "file",
    }
    for kind, info in MODEL_KINDS.items():
        assert isinstance(info["doc"], str) and info["doc"]


def test_build_model_matches_direct_constructors(tmp_path):
    pairs = [
        (
            ModelSpec("single_spin", {"h3": 0.9}),
            single_spin(0.9),
        ),
        (
            ModelSpec("random", {"beta": 1.3}, {"dim": 5}, seed=11),
            random_pair(5, 11, 1.0, 1.0, 1.3),
        ),
        (
            ModelSpec("tfim", {"j": 1.0, "g": 0.6, "beta": 0.8}, {"n_sites": 3}),
            tfim(3, 1.0, 0.6, 0.8),
        ),
        (
            ModelSpec(
                "kondo_toy", {"j": 0.5, "beta": 1.0}, {"s2": 1, "modes": 1}
            ),
            kondo_toy(1, (0.0,), 0.5, 1.0),
        ),
    ]
    for spec, direct in pairs:
        built = build_model(spec)
        assert same_blocks(built, direct)


def test_build_model_random_seed_defaults_to_zero():
    spec = ModelSpec("random", {"beta": 1.0}, {"dim": 3})
    built = build_model(spec)
    assert same_blocks(built, random_pair(3, 0, 1.0, 1.0, 1.0))


def test_build_model_validation():
    with pytest.raises(ModelSchemaError):
        build_model(ModelSpec("no_such_kind"))
    with pytest.raises(ModelSchemaError):
        build_model(ModelSpec("single_spin", {"h3": 1.0, "stray": 2.0}))
    with pytest.raises(ModelSchemaError):
        build_model(ModelSpec("tfim", {"j": 1.0, "g": 0.5, "beta": 1.0}))  # no n_sites
    with pytest.raises(ModelSchemaError):
        build_model(ModelSpec("file"))
    with pytest.raises(ModelSchemaError):
        build_model(ModelSpec("random", {"beta": 1.0}, {"dim": 0}))


def test_build_model_rejects_values_the_model_would_ignore(tmp_path):
    """eps2 of a one-mode kondo_toy and a parameter of a file model were
    dropped, so a sweep over eps2 wrote rows of one chi_f."""
    with pytest.raises(ModelSchemaError, match="eps2"):
        build_model(ModelSpec("kondo_toy", {"j": 0.5, "beta": 1.0, "eps2": 0.3},
                              {"s2": 1, "modes": 2}))
    path = str(write_model(tmp_path, good_model_dict()))
    assert build_model(ModelSpec("file", path=path)).beta == 1.4
    with pytest.raises(ModelSchemaError, match="beta"):
        build_model(ModelSpec("file", {"beta": 2.0}, path=path))


@pytest.mark.parametrize(
    "build, size",
    [
        (lambda v: dicke(v, 8, 2.0, 1.0, 0.5, 1.0), 2),
        (lambda v: dicke(2, v, 2.0, 1.0, 0.5, 1.0), 8),
        (lambda v: kondo_toy(v, (0.0,), 0.5, 1.0), 2),
        (lambda v: kondo_roepstorff(1.0, 1.0, v), 2),
        (lambda v: random_pair(v, 0), 3),
        (lambda v: random_pair(3, v), 4),
        (lambda v: tfim(v, 1.0, 0.5, 1.0), 3),
    ],
    ids=["n_atoms", "n_max", "s2", "roepstorff_s2", "dim", "seed", "n_sites"],
)
def test_builders_take_only_integral_sizes(build, size):
    """A fractional size was truncated by int(): s2 = 1.5 built the
    spin-1/2 model and tfim(3.9) a chain of 3.  An integral float is the
    integer; bools, strings and non-integral floats raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        whole, exact = build(float(size)), build(size)
        if isinstance(exact, KondoBoundRecord):
            assert whole == exact
        else:
            assert same_blocks(whole, exact)
        for bad in (size + 0.5, size - 0.1, True, str(size), math.nan, math.inf):
            with pytest.raises(ValueError, match="must be an integer"):
                build(bad)


def test_build_model_rejects_fractional_cutoffs():
    with pytest.raises(ModelSchemaError, match="must be an integer"):
        build_model(ModelSpec("random", {"beta": 1.0}, {"dim": 5.7}))
    with pytest.raises(ModelSchemaError, match="must be an integer"):
        build_model(ModelSpec("random", {"beta": 1.0}, {"dim": True}))
    with pytest.raises(ModelSchemaError, match="must be an integer"):
        build_model(ModelSpec("random", {"beta": 1.0}, {"dim": 3}, seed=0.5))
    spec = ModelSpec("kondo_toy", {"j": 0.5, "beta": 1.0}, {"s2": 1.5, "modes": 1})
    with pytest.raises(ModelSchemaError, match="must be an integer"):
        build_model(spec)
    whole = build_model(ModelSpec("tfim", {"j": 1.0, "g": 0.5, "beta": 1.0}, {"n_sites": 3.0}))
    assert whole.dim == 8 and whole.particle_count == 3


def test_build_model_applies_declared_defaults():
    spec = ModelSpec("random", {"beta": 2.0, "s_scale": 0.5}, {"dim": 4}, seed=3)
    built = build_model(spec)
    direct = random_pair(4, 3, 1.0, 0.5, 2.0)
    assert same_blocks(built, direct)


# ---------------------------------------------------------------------------
# the symmetry-sector builds against the product-space builds they replaced

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.diag([1.0, -1.0])


def _site_op(op, i, n_sites):
    return np.kron(np.kron(np.eye(2**i), op), np.eye(2 ** (n_sites - i - 1)))


def _kron_dicke(n_atoms, n_max, omega, eps, lam, symmetric_sector):
    """Boson (x) atoms, the atoms as 2^N sites or as the j = N/2 ladder."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    quad = a + a.T
    number = a.T @ a
    if symmetric_sector:
        j = 0.5 * n_atoms
        m = j - np.arange(n_atoms + 1)
        lower = np.zeros((n_atoms + 1, n_atoms + 1))
        for i in range(n_atoms):
            lower[i + 1, i] = math.sqrt(j * (j + 1.0) - m[i] * (m[i] - 1.0))
        jx, jz = 0.5 * (lower + lower.T), np.diag(m)
    else:
        jx = sum(_site_op(0.5 * _SX, i, n_atoms) for i in range(n_atoms))
        jz = sum(_site_op(0.5 * _SZ, i, n_atoms) for i in range(n_atoms))
    eye_b, eye_a = np.eye(n_max + 1), np.eye(jx.shape[0])
    T = (
        omega * np.kron(number, eye_a)
        + eps * np.kron(eye_b, jz)
        + (lam / math.sqrt(n_atoms)) * np.kron(quad, jx)
    )
    S = 0.5 * math.sqrt(n_atoms) * np.kron(quad, eye_a)
    return T, S


def _kron_tfim(n_sites, j_coupling, g_field):
    T = -j_coupling * sum(
        _site_op(_SZ, i, n_sites) @ _site_op(_SZ, i + 1, n_sites)
        for i in range(n_sites - 1)
    )
    S = sum(_site_op(_SX, i, n_sites) for i in range(n_sites))
    return T - g_field * S, S


def _assert_same_physics(ref, fam):
    levels = all_levels(ref)
    np.testing.assert_allclose(
        all_levels(fam), levels, rtol=0, atol=1e-12 * max(1.0, float(np.abs(levels).max()))
    )
    want = vars(bound_report(ref))
    got = vars(bound_report(fam))
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, float):
            assert abs(got[name] - value) <= 1e-12 * max(1.0, abs(value)), name
        else:
            assert got[name] == value, name


@pytest.mark.parametrize("sector", [False, True], ids=["full", "sector"])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_dicke_matches_the_product_space_build(n_atoms, sector):
    args = (n_atoms, 10, 2.0, 1.0, 1.0)
    T, S = _kron_dicke(*args, sector)
    ref = make_family(T, S, 1.3, particle_count=n_atoms)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        fam = dicke(*args, 1.3, symmetric_sector=sector)
    assert fam.dim == ref.dim
    if sector:
        ((t, s, copies, even),) = fidsus.models._dicke_blocks(*args, True)
        assert np.array_equal(t, T) and np.array_equal(s, S) and copies == 1
        # Fock (x) m order: state k has n = k // (N + 1) bosons and j - m = k % (N + 1)
        k = np.arange(T.shape[0])
        assert np.array_equal(even, (k // (n_atoms + 1) + k % (n_atoms + 1)) % 2 == 0)
    assert all(b.sectors is not None for b in fam.blocks)
    _assert_same_physics(ref, fam)


@pytest.mark.parametrize("g_field", [0.0, 0.7, 1.3])
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_tfim_matches_the_product_space_build(n_sites, g_field):
    ref = make_family(*_kron_tfim(n_sites, 1.0, g_field), 1.1, particle_count=n_sites)
    fam = tfim(n_sites, 1.0, g_field, 1.1)
    _assert_same_physics(ref, fam)
    if g_field == 0.0:
        assert bound_report(fam).chi_f_classical == 0.0
