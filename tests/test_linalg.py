"""Eigensolver and factorization checks against numpy oracles."""

import numpy as np
import pytest

from conftest import random_hermitian
from fidsus.errors import NoConvergenceError, NonFiniteError, NotHermitianError, NotSquareError
from fidsus.linalg import HermitianOperator, eig_hermitian, svd_checked, validate_hermitian


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 21])
def test_eigenvalues_match_numpy(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(5):
        h = random_hermitian(rng, dim)
        w, _ = eig_hermitian(validate_hermitian(h))
        np.testing.assert_allclose(
            w, np.linalg.eigvalsh(h), rtol=0, atol=1e-11 * dim
        )
    # a spectrum known by construction, independent of any eigensolver
    lam = np.sort(rng.normal(size=dim))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = np.linalg.qr(g)[0]
    w, _ = eig_hermitian(validate_hermitian((u * lam) @ u.conj().T))
    np.testing.assert_allclose(w, lam, rtol=0, atol=1e-12 * dim)


def _hermitian_with_spectrum(rng, lam, real):
    g = random_hermitian(rng, len(lam))
    u = np.linalg.qr(g.real if real else g)[0]
    return (u * lam) @ u.conj().T


def _permuted_blocks(rng, real):
    """A direct sum with a repeated block, a 1x1 block and a level (0.25)
    shared by two different blocks, its rows and columns riffled together
    at random (each block keeps its own order, so both copies of the
    repeated block read the same): a matrix of exact zeros and exact
    degeneracies, solved by one ``eigh`` like any other."""
    a = _hermitian_with_spectrum(rng, [-1.0, 0.25, 2.0], real)
    b = _hermitian_with_spectrum(rng, [0.25, 0.5, 1.5, 3.0], real)
    c = random_hermitian(rng, 2)
    blocks = [a, np.array([[0.7]]), b, a, c.real if real else c]
    label = rng.permutation(np.repeat(np.arange(len(blocks)), [len(x) for x in blocks]))
    h = np.zeros((label.size, label.size), dtype=float if real else complex)
    members = [np.flatnonzero(label == k) for k in range(len(blocks))]
    for idx, x in zip(members, blocks):
        h[np.ix_(idx, idx)] = x
    return h


def test_eigenbasis_reconstructs_matrix(monkeypatch):
    rng = np.random.default_rng(42)
    inputs = [random_hermitian(rng, dim) for dim in (2, 4, 7, 12)]
    inputs += [_permuted_blocks(rng, real) for real in (True, False)]
    eigh, shapes = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or eigh(m))
    for h in inputs:
        dim = h.shape[0]
        w, vecs = eig_hermitian(validate_hermitian(h))
        rebuilt = (vecs * w) @ vecs.conj().T
        np.testing.assert_allclose(rebuilt, h, atol=1e-12 * dim)
        # unitary columns
        np.testing.assert_allclose(
            vecs.conj().T @ vecs, np.eye(dim), atol=1e-12 * dim
        )
    # one eigh of the whole matrix per call, reducible or not
    assert shapes == [h.shape for h in inputs]


def test_eigenvalues_ascending():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(2, 16))
        w, _ = eig_hermitian(validate_hermitian(random_hermitian(rng, dim)))
        assert np.all(np.diff(w) >= 0.0)


def test_degenerate_spectrum():
    # two exact two-fold degeneracies, off-diagonal coupling rotated in
    rng = np.random.default_rng(9)
    d = np.diag([1.0, 1.0, 2.0, 2.0, 5.0]).astype(complex)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    u = np.linalg.qr(g)[0]
    h = u @ d @ u.conj().T
    w, vecs = eig_hermitian(validate_hermitian(h))
    np.testing.assert_allclose(
        w, [1.0, 1.0, 2.0, 2.0, 5.0], atol=1e-12
    )
    rebuilt = (vecs * w) @ vecs.conj().T
    np.testing.assert_allclose(rebuilt, h, atol=1e-12)


def test_already_diagonal_is_fixed_point():
    h = np.diag([3.0, -1.0, 0.5]).astype(complex)
    w, vecs = eig_hermitian(validate_hermitian(h))
    np.testing.assert_allclose(w, [-1.0, 0.5, 3.0], atol=0)
    # basis must be a signed permutation (here: a permutation)
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=0)


def test_eigensolver_failure_is_a_typed_error(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        eig_hermitian(validate_hermitian(np.diag([1.0, 2.0])))


@pytest.mark.parametrize("upper", [0.0, 1.0 + 1e-9], ids=["triangular", "asymmetry_1e-9"])
def test_residual_rejects_an_operator_built_without_validation(upper):
    """An operator built directly, as the exactly Hermitian internal writes
    are, relies on the residual check: a matrix that is not Hermitian,
    even by 1e-9, fails it."""
    op = HermitianOperator(np.array([[1.0, upper], [1.0, 1.0]]), 2)
    with pytest.raises(NoConvergenceError, match="residual"):
        eig_hermitian(op)


_CORRUPTIONS = [
    # unitary but not an eigenbasis
    ("not_eigenvectors", lambda b: np.roll(b, 1, axis=1), "residual"),
    # exact eigenvectors, but not unit length
    ("not_unit_length", lambda b: b * (1.0 + 1e-6), "unitarity"),
    # NaN must not slip past the comparisons
    ("nan", lambda b: np.full_like(b, np.nan), "residual"),
]


@pytest.mark.parametrize(
    "corrupt, message, dtype",
    [pytest.param(c, m, np.complex128, id=name) for name, c, m in _CORRUPTIONS]
    + [pytest.param(c, m, np.float64, id=f"real-{name}") for name, c, m in _CORRUPTIONS],
)
def test_postconditions_reject_a_corrupted_basis(monkeypatch, corrupt, message, dtype):
    eigh = np.linalg.eigh

    def corrupted(matrix):
        evals, basis = eigh(matrix)
        return evals, corrupt(basis)

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    h = random_hermitian(np.random.default_rng(5), 6)
    op = validate_hermitian(h.real if dtype == np.float64 else h)
    assert op.matrix.dtype == dtype
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergenceError, match=message):
        eig_hermitian(op)


def _fail_svd(matrix):
    raise np.linalg.LinAlgError("SVD did not converge")


def _rolled_svd(matrix, svd=np.linalg.svd):
    u, s, vt = svd(matrix)
    return np.roll(u, 1, axis=1), s, vt


@pytest.mark.parametrize(
    "svd, message", [(_fail_svd, "did not converge"), (_rolled_svd, "residual")]
)
def test_svd_failure_and_a_wrong_factor_are_typed_errors(monkeypatch, svd, message):
    m = 2.0 * np.eye(4) - np.eye(4, k=1) + 0.3 * np.eye(4, k=2)
    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(NoConvergenceError, match=message):
        svd_checked(m)


@pytest.mark.parametrize("g", [1e-3, 1e-2, 0.1])
def test_svd_keeps_the_edge_mode_of_an_upper_bidiagonal_matrix(g):
    """The open Ising chain's one-body matrix 2 g I - 2 L^T has one
    singular value near (2 g)^n / 2^(n-1); the product of all of them is
    |det| = (2 g)^n, which holds to rounding only if that one is
    accurate to high relative precision."""
    n = 10
    u, s, v = svd_checked(2.0 * g * np.eye(n) - 2.0 * np.eye(n, k=1))
    assert s[-1] > 0.0
    assert abs(np.prod(s) / (2.0 * g) ** n - 1.0) <= 1e-13
    assert np.allclose(u.T @ u, np.eye(n), atol=1e-13)
    assert np.allclose(v.T @ v, np.eye(n), atol=1e-13)


def test_validate_hermitian_rejects():
    with pytest.raises(NotSquareError):
        validate_hermitian(np.zeros((2, 3)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        validate_hermitian(bad)
    with pytest.raises((ValueError,)):
        validate_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_validated_matrix_is_readonly():
    op = validate_hermitian(np.eye(3))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0


def test_real_operators_are_stored_and_decomposed_as_float64():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 7)
    sym = h.real
    for given in (sym, sym.astype(complex), sym.astype(np.float32), np.eye(3, dtype=int)):
        op = validate_hermitian(given)
        assert op.matrix.dtype == np.float64
        w, vecs = eig_hermitian(op)
        assert vecs.dtype == np.float64 and w.dtype == np.float64
    real_w, real_vecs = eig_hermitian(validate_hermitian(sym))
    _, cplx_vecs = eig_hermitian(validate_hermitian(h))
    assert cplx_vecs.dtype == np.complex128
    np.testing.assert_allclose(real_w, np.linalg.eigvalsh(sym), rtol=0, atol=1e-13)
    # the phase pin of a real basis is a sign: the pivot is +|pivot|
    pivots = real_vecs[np.argmax(np.abs(real_vecs), axis=0), np.arange(7)]
    assert np.all(pivots > 0.0)


def test_one_tiny_imaginary_entry_keeps_the_operator_complex():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    h[0, 1] = 1e-300j
    h[1, 0] = -1e-300j
    op = validate_hermitian(h)
    assert op.matrix.dtype == np.complex128
    assert op.matrix[0, 1] == 1e-300j
    # an imaginary part that symmetrizes to exact zero is dropped
    h[1, 0] = 1e-300j
    assert validate_hermitian(h).matrix.dtype == np.float64


def _reference_eig_hermitian(op):
    """The single-call algorithm: one eigh of the whole matrix, sorted and pinned."""
    evals, basis = np.linalg.eigh(op.matrix)
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    basis = basis[:, order]
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(op.dim)]
    basis *= pivots.conjugate() / np.hypot(pivots.real, pivots.imag)
    return evals, basis


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("shape", ["dense", "tridiagonal"])
def test_irreducible_matrix_keeps_the_single_call_result(real, shape):
    rng = np.random.default_rng(23)
    h = random_hermitian(rng, 9)
    if real:
        h = h.real
    if shape == "tridiagonal":
        h = np.triu(np.tril(h, 1), -1)
    op = validate_hermitian(h)
    w, vecs = eig_hermitian(op)
    evals, basis = _reference_eig_hermitian(op)
    assert np.array_equal(w, evals)
    assert np.array_equal(vecs, basis)



def test_sorted_eigenvalues_keep_the_basis_eigh_returned(monkeypatch):
    """LAPACK returns the eigenvalues ascending, and the basis is then pinned
    where eigh left it, not gathered into a copy.  An unsorted return is
    still sorted stably, ties in the order eigh gave them, and a NaN
    eigenvalue takes the sort and fails the residual check."""
    eigh = np.linalg.eigh
    returned = []
    perm = []

    def spy(matrix):
        evals, basis = eigh(matrix)
        if perm:
            evals, basis = evals[perm], np.ascontiguousarray(basis[:, perm])
        returned.append(basis)
        return evals, basis

    monkeypatch.setattr(np.linalg, "eigh", spy)
    op = validate_hermitian(random_hermitian(np.random.default_rng(31), 6))
    _, vecs = eig_hermitian(op)
    assert np.shares_memory(vecs, returned[-1])

    op = validate_hermitian(np.diag([1.0, 1.0, 2.0, 0.0]))
    perm[:] = [1, 3, 2, 0]
    w, vecs = eig_hermitian(op)
    evals, basis = _reference_eig_hermitian(op)
    assert not np.shares_memory(vecs, returned[-1])
    assert np.array_equal(w, evals) and np.array_equal(vecs, basis)
    assert np.all(np.diff(w) >= 0.0)

    def nan_level(matrix):
        evals, basis = eigh(matrix)
        evals[1] = np.nan
        return evals, basis

    monkeypatch.setattr(np.linalg, "eigh", nan_level)
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergenceError, match="residual"):
        eig_hermitian(op)


def _stack(real, shape=(6,), n=7, seed=41):
    rng = np.random.default_rng(seed)
    h = np.stack([random_hermitian(rng, n) for _ in range(int(np.prod(shape)))])
    return (h.real if real else h).reshape(*shape, n, n)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_a_stack_decomposes_each_member_as_it_would_alone(monkeypatch, real):
    """One validation and one eigh for the stack, each member's operator,
    levels and basis bit for bit those it gets alone; ``dim`` is each
    member's side.  A member that eigh returns unsorted makes the whole
    stack take the stable sort, which leaves the sorted members as they
    are and restores that member's order."""
    h = _stack(real, shape=(2, 3))
    op = validate_hermitian(h)
    assert op.dim == 7 and op.matrix.shape == h.shape
    eigh = np.linalg.eigh

    def unsorted(matrix):
        evals, basis = eigh(matrix)
        if matrix.ndim > 2:
            evals[1, 2], basis[1, 2] = evals[1, 2, ::-1], basis[1, 2, :, ::-1]
        return evals, basis

    monkeypatch.setattr(np.linalg, "eigh", unsorted)
    w, vecs = eig_hermitian(op)
    for k in np.ndindex(2, 3):
        alone = validate_hermitian(h[k])
        assert alone.matrix.dtype == op.matrix.dtype
        assert np.array_equal(alone.matrix, op.matrix[k])
        w_k, vecs_k = eig_hermitian(alone)
        assert np.array_equal(w[k], w_k) and np.array_equal(vecs[k], vecs_k)


def test_a_failing_member_of_a_stack_is_named():
    """Each check runs per member against its own scale, and the error
    names the first member that fails it, by its index along the stack
    axes."""
    h = _stack(False)
    bad = h.copy()
    bad[4, 0, 0] = np.inf
    with pytest.raises(NonFiniteError, match="member 4: "):
        validate_hermitian(bad)
    # an asymmetry of 1e-8 is below HERMITIAN_REL = 1e-12 relative to a
    # member of norm ~1e7, not to one of norm ~10
    bad = np.stack([1e6 * h[0], h[1]])
    bad[:, 0, 1] += 1e-8
    with pytest.raises(NotHermitianError, match="member 1: asymmetry"):
        validate_hermitian(bad)
    with pytest.raises(NotHermitianError, match=r"member \(1, 0\): "):
        validate_hermitian(np.stack([h[:2], np.stack([bad[1], h[2]])]))
    with pytest.raises(NotSquareError):
        validate_hermitian(np.zeros((3, 2, 3)))
    # so is the residual, where a member of norm ~1e7 would let it pass
    h = _stack(True)[:3].copy()
    h[0] *= 1e6
    h[2, 0, 1] += 1e-9
    op = HermitianOperator(h, 7)
    with pytest.raises(NoConvergenceError, match="member 2: eigendecomposition residual"):
        eig_hermitian(op)


def test_unitarity_is_checked_per_member(monkeypatch):
    eigh = np.linalg.eigh

    def stretched(matrix):
        evals, basis = eigh(matrix)
        basis[5] *= 1.0 + 1e-6
        return evals, basis

    monkeypatch.setattr(np.linalg, "eigh", stretched)
    with pytest.raises(NoConvergenceError, match="member 5: eigenbasis unitarity"):
        eig_hermitian(validate_hermitian(_stack(True)))
