"""Block families against the dense direct sums they stand for."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from conftest import (
    all_levels,
    complex_sector_family,
    random_hermitian,
    same_blocks,
    whole_family,
)
from fidsus import fidelity, gibbs
from fidsus.bounds import bound_report
from fidsus.cli import main
from fidsus.errors import CutoffConvergenceWarning, SectorDeclarationError
from fidsus.fidelity import _pair_sums, _pair_sums_over, chi_f_spectral
from fidsus.gibbs import _parity, block_family, family_at_beta, make_family
from fidsus.models import _dicke_blocks, dicke, model_from_file, single_spin, tfim

# the acceptance rule of a report against a reference: each float within
# 1e-12 of max(1, |reference|)
REL = 1e-12


def _dense_pair(blocks):
    """The direct sum of every copy of every block, in the order given."""
    copies = [(t, s) for t, s, c in blocks for _ in range(c)]
    return block_diag(*(t for t, _ in copies)), block_diag(*(s for _, s in copies))


def _assert_same_family(fam, ref, check_chi_n=True, same_sign=True):
    """Every report field and log Z within REL of ``ref``'s, the counts
    and levels equal, and with ``same_sign`` ``sign_odd`` too: a
    `whole_family` reference has no sectors, so it is never sign-odd."""
    got = dataclasses.asdict(bound_report(fam, check_chi_n=check_chi_n))
    want = dataclasses.asdict(bound_report(ref, check_chi_n=check_chi_n))
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= REL * max(1.0, abs(value)), key
        else:
            assert got[key] == value, key
    assert abs(fam.log_z - ref.log_z) <= REL * max(1.0, abs(ref.log_z))
    assert fam.dim == ref.dim
    assert fam.underflow_count == ref.underflow_count
    assert fam.sign_odd is ref.sign_odd or not same_sign
    np.testing.assert_allclose(all_levels(fam), all_levels(ref), rtol=0, atol=1e-12)


@st.composite
def block_lists(draw):
    """1-4 distinct blocks of size 1-4 with 1-3 copies each, each real or
    complex, at beta from 0.1 to 1e3.  Levels come from one shared ladder, shifted by nothing, by
    a split far inside the degeneracy window or by one near its edge, so
    blocks meet in exact and near degeneracies.  A block's T is diagonal
    or rotated; its S is dense, or, with a diagonal T, a zero-diagonal
    bipartite pattern, which makes an all-odd list sign-odd."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = 10.0 ** draw(st.floats(-1.0, 3.0))
    ladder = draw(st.floats(0.05, 2.0)) * np.arange(4)
    odd = draw(st.booleans())
    blocks = []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 4))
        split = draw(st.sampled_from([0.0, 1e-12, 0.5e-7 / beta]))
        levels = ladder[rng.integers(0, 4, size=n)] + split * rng.integers(0, 2, size=n)
        real = draw(st.booleans())
        s = random_hermitian(rng, n)
        s = s.real if real else s
        t = np.diag(levels + 1e-3 * k)  # distinct blocks, shifted out of the window
        if k and draw(st.booleans()):
            t = np.diag(levels)  # the same ladder as the first block
        if odd:
            side = np.arange(n) % 2 == 0
            s = np.where(side[:, None] != side[None, :], s, 0.0)
        elif draw(st.booleans()):
            u = np.linalg.qr(random_hermitian(rng, n))[0]
            u = u.real if real else u
            t = u @ t @ u.conj().T
            t = 0.5 * (t + t.conj().T)
        blocks.append((t, s, draw(st.integers(1, 3))))
    return blocks, beta


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=block_lists())
def test_block_family_matches_its_dense_direct_sum(case):
    """Every report field, log Z and the counts agree between a list of
    blocks and `make_family` of its dense direct sum."""
    blocks, beta = case
    fam = block_family(blocks, beta, particle_count=2)
    ref = make_family(*_dense_pair(blocks), beta, particle_count=2)
    _assert_same_family(fam, ref, check_chi_n=beta <= 10.0)


def _window_across_blocks(split):
    """A real and a complex 4-level block at beta = 10, each T rotated by a
    random unitary of its kind and each S dense, whose lowest levels are 0
    and ``split``: 5.2e-9 puts them inside the degeneracy window
    (beta x gap 5.2e-8 < DEGENERATE_GAP) across the blocks, 0 makes them
    exactly degenerate."""
    rng = np.random.default_rng(61)
    blocks = []
    for levels, real in (([0.0, 0.1, 0.25, 0.4], True), ([split, 0.15, 0.3, 0.5], False)):
        h = random_hermitian(rng, 4)
        q = np.linalg.qr(h.real if real else h)[0]
        t = q @ np.diag(levels) @ q.conj().T
        s = random_hermitian(rng, 4)
        blocks.append((0.5 * (t + t.conj().T), s.real if real else s, 1))
    return blocks, 10.0


@pytest.mark.parametrize("split", [5.2e-9, 0.0])
def test_a_window_across_a_real_and_a_complex_block(split):
    """Two levels of different blocks inside one degeneracy window count as
    one eigenspace.  chi_f, ds2 and every other report field but the split
    agree with the dense direct sum within REL.  The split is README's:
    chi_f_classical is (beta^2/4) times the population variance of the
    eigenspace averages, the window's average weighted by populations,
    and whatever the split moves between the routes moves between its
    parts.  Only for exactly degenerate levels is the split itself
    promised within REL of the dense one."""
    blocks, beta = _window_across_blocks(split)
    fam = block_family(blocks, beta)
    ref = make_family(*_dense_pair(blocks), beta)
    got = dataclasses.asdict(bound_report(fam))
    want = dataclasses.asdict(bound_report(ref))
    split_keys = ("chi_f_classical", "chi_f_quantum")
    for key, value in want.items():
        if key in split_keys:
            continue
        if isinstance(value, float):
            assert abs(got[key] - value) <= REL * max(1.0, abs(value)), key
        else:
            assert got[key] == value, key
    assert got["degenerate_pair_count"] == 1
    moved = [got[key] - want[key] for key in split_keys]
    assert abs(sum(moved)) <= REL * max(1.0, want["chi_f"])
    if split == 0.0:
        assert max(map(abs, moved)) <= REL * max(1.0, want["chi_f"])

    # README's classical part, from the block family's own levels, weights
    # and diagonals: the two lowest levels, one per block, share a window
    (a, b) = fam.blocks
    p = np.concatenate([a.populations, b.populations])
    delta = np.concatenate([a.s_diagonal, b.s_diagonal]) - fam.s_mean
    window = [0, 4]
    avg = delta.copy()
    avg[window] = np.dot(p[window], delta[window]) / p[window].sum()
    classical = 0.25 * beta**2 * float(np.dot(p, avg**2))
    assert abs(got["chi_f_classical"] - classical) <= REL * max(1.0, classical)


def test_eigenspace_spanning_two_blocks_is_averaged_whole():
    """Level 0 is shared by block A and both copies of block B, so its
    eigenspace spans two blocks: the classical part is the population
    variance of S averaged over the whole eigenspace, not per block."""
    sa = np.array([[1.0, 0.3], [0.3, -1.0]])
    sb = np.array([[3.0, 0.2j], [-0.2j, 0.5]])
    blocks = [(np.diag([0.0, 1.0]), sa, 1), (np.diag([0.0, 2.0]), sb, 2)]
    beta = 0.7
    fam = block_family(blocks, beta)
    ref = make_family(*_dense_pair(blocks), beta)
    _assert_same_family(fam, ref)

    # eigenspaces {A0, B0, B0'}, {A1}, {B1, B1'}: d, level, S_mm summed
    spaces = [(3, 0.0, 1.0 + 2 * 3.0), (1, 1.0, -1.0), (2, 2.0, 2 * 0.5)]
    z = sum(d * np.exp(-beta * e) for d, e, _ in spaces)
    weight = [d * np.exp(-beta * e) / z for d, e, _ in spaces]
    avg = [total / d for d, _, total in spaces]
    mean = float(np.dot(weight, avg))
    classical = 0.25 * beta**2 * float(np.dot(weight, (np.array(avg) - mean) ** 2))
    parts = chi_f_spectral(fam)
    assert parts.classical == pytest.approx(classical, rel=1e-13)
    # each block averaged on its own would give another number
    per_block = [(1, 0.0, 1.0), (2, 0.0, 2 * 3.0), (1, 1.0, -1.0), (2, 2.0, 2 * 0.5)]
    weight = [d * np.exp(-beta * e) / z for d, e, _ in per_block]
    avg = np.array([total / d for d, _, total in per_block])
    wrong = 0.25 * beta**2 * float(np.dot(weight, (avg - np.dot(weight, avg)) ** 2))
    assert abs(parts.classical - wrong) > 1e-3 * classical


def test_full_space_dicke_report_stays_small():
    """A full-space Dicke build and report at N = 6 (dim 832) hold no
    dense n x n matrix: the traced peak is 3.0 MiB where the dense
    direct sum took 159 MiB."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffConvergenceWarning)
            bound_report(dicke(6, 12, 2, 1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_full_space_dicke_oracle_step_ignores_the_copies():
    """The chi_N oracle's sigma(S) is the largest block's spread, copies
    left out.  Taken over the whole space it grew as sqrt(dim), and at
    N = 56 (29 blocks, dim 3 2^56) it put the step into the rounding of
    <S>_h, so this report exited 2 on check chi_n_oracle."""
    argv = ["report", "--model", "dicke", "--n-atoms", "56", "--n-max", "2",
            "--omega", "2", "--eps", "1", "--lambda", "1", "--beta", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffConvergenceWarning)
        assert main(argv) == 0


@st.composite
def sector_blocks(draw):
    """1-3 blocks of size 1-6 with 1-2 copies at beta from 0.1 to 100, each
    real or complex, whose states split into two random sectors (either
    may be empty): T is a random Hermitian matrix inside each sector,
    with levels that may repeat across the two, and S links only the
    two sectors.  Each block declares its sectors or not; a last block
    that declares none and has a dense S (nonzero diagonal, so <S> != 0)
    may join them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = 10.0 ** draw(st.floats(-1.0, 2.0))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        real = draw(st.booleans())
        first = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
        same = first[:, None] == first[None, :]
        t = random_hermitian(rng, n)
        if draw(st.booleans()):
            t = np.diag(np.round(t.diagonal().real))  # repeated levels
        s = random_hermitian(rng, n)
        t, s = (a.real if real else a for a in (np.where(same, t, 0.0), np.where(same, 0.0, s)))
        copies = draw(st.integers(1, 2))
        blocks.append((t, s, copies, first) if draw(st.booleans()) else (t, s, copies))
    if draw(st.booleans()):
        blocks.append((np.diag(rng.normal(size=3)), random_hermitian(rng, 3), 1))
    return blocks, beta


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=sector_blocks())
def test_declared_sectors_match_the_whole_block_solve(case):
    """A block solved sector by sector, its sectors declared or found,
    gives every report field, log Z and the counts of the same block
    solved whole, with its levels ascending and S zero inside each
    sector.  Every block but one with a nonzero diagonal of S has
    sectors."""
    blocks, beta = case
    fam = block_family(blocks, beta, particle_count=2)
    ref = whole_family(blocks, beta, particle_count=2)
    _assert_same_family(fam, ref, check_chi_n=beta <= 10.0, same_sign=False)
    for b, (_, s, *_) in zip(fam.blocks, blocks):
        assert (b.sectors is None) == bool(np.diagonal(s).any())
        assert np.all(np.diff(b.levels) >= 0.0)
        if b.sectors is not None:
            rows, cols = b.sectors
            assert sorted([*rows, *cols]) == list(range(b.levels.size))
            for k in (rows, cols):
                assert not b.s_eig[np.ix_(k, k)].any()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=sector_blocks(), chunk=st.sampled_from([gibbs._CHUNK_ELEMENTS, 1, 40]))
def test_a_stacked_pass_gives_each_temperature_its_own_pair_sums(case, chunk):
    """`_pair_sums_over` sums the temperatures of one chain in one stack
    per block, in chunks of at most ``_CHUNK_ELEMENTS`` pair entries, and
    gives each family the floats of a pass of its own: blocks with and
    without sectors, with copies, and a whole block whose S has a
    diagonal, so <S> != 0 puts rho' terms on the sectors' diagonal.  A
    family whose sums are formed already keeps them."""
    blocks, beta = case
    fam = block_family(blocks, beta)
    chain = [family_at_beta(fam, b) for b in beta * np.geomspace(0.1, 30.0, 7)]
    kept = _pair_sums(chain[3])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gibbs, "_CHUNK_ELEMENTS", chunk)
        _pair_sums_over(chain)
    assert chain[3].memo["_pair_sums"] is kept
    for f in chain:
        assert f.memo["_pair_sums"] == _pair_sums(family_at_beta(f, f.beta))


def _independent_stack(rng, dim, real, degenerate):
    """Five independent one-block families of one dimension at betas from
    0.1 to 800 (where populations underflow), each T drawn anew; with
    ``degenerate`` T repeats each of its levels, rotated by a random
    unitary, so pairs fall in the degeneracy window."""
    fams = []
    for beta in np.geomspace(0.1, 800.0, 5):
        t, s, g = (random_hermitian(rng, dim) for _ in range(3))
        if real:
            t, s, g = t.real, s.real, g.real
        if degenerate:
            q, _ = np.linalg.qr(g)
            t = q @ np.diag(0.7 * (np.arange(dim) // 2)) @ q.conj().T
        fams.append(make_family(0.5 * (t + t.conj().T), 0.5 * (s + s.conj().T), beta))
    return fams


@pytest.mark.parametrize("chunk", [gibbs._CHUNK_ELEMENTS, 1, 40])
def test_a_stacked_pass_gives_each_independent_family_its_own_pair_sums(chunk, monkeypatch):
    """`_pair_sums_over` over independent families of one shape, their
    levels and S stacked, gives each family the floats of a pass of its
    own, field by field: dims 1 to 12, real and complex S, T with
    repeated levels, betas up to 800, and chunks of the default size,
    of one family and of whatever fits 40 entries."""
    rng = np.random.default_rng(28)
    monkeypatch.setattr(gibbs, "_CHUNK_ELEMENTS", chunk)
    underflow = 0
    for dim in range(1, 13):
        for real in (True, False):
            for degenerate in (False, True):
                fams = _independent_stack(rng, dim, real, degenerate)
                assert all(f.blocks[0].sectors is None for f in fams)
                _pair_sums_over(fams)
                for f in fams:
                    assert f.memo["_pair_sums"] == _pair_sums(family_at_beta(f, f.beta))
                if degenerate and dim > 1:
                    assert chi_f_spectral(fams[0]).degenerate_pair_count > 0
                underflow += sum(f.underflow_count for f in fams)
    assert underflow > 0


@pytest.mark.parametrize("kind", ["random", "dicke"])
def test_a_family_alone_is_summed_with_no_stack_axis(kind, monkeypatch):
    """A family alone reaches `_block_sums` with its own blocks, 1-D
    arrays and a float beta, one call per block, and its `_pair_sums` are
    its column in a `family_at_beta` chain and, for a one-block family,
    in a stack with independent families, bit for bit.  The Dicke family
    has blocks with sectors and copies."""
    if kind == "random":
        stack = _independent_stack(np.random.default_rng(31), 6, False, False)
        fam = stack[2]
    else:
        fam, stack = block_family(_dicke_blocks(3, 6, 2.0, 1.0, 1.0, False), 1.3, 3), None
    alone = family_at_beta(fam, fam.beta)
    seen = []
    real = fidelity._block_sums

    def spy(b, beta, diagonal):
        seen.append((type(beta), b.levels.ndim, b.populations.ndim, diagonal.ndim))
        return real(b, beta, diagonal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fidelity, "_block_sums", spy)
        sums = _pair_sums(alone)
    assert seen == [(float, 1, 1, 1)] * len(fam.blocks)
    chain = [family_at_beta(fam, b) for b in (0.5 * fam.beta, fam.beta, 2.0 * fam.beta)]
    _pair_sums_over(chain)
    assert chain[1].memo["_pair_sums"] == sums
    if stack is not None:
        _pair_sums_over(stack)
        assert stack[2].memo["_pair_sums"] == sums


def test_a_stacked_pass_refuses_families_of_different_shapes():
    """Families whose blocks differ in size, copies or sectors, or in
    number, cannot share a stack; sectors equal in value but built apart
    are not the same object, so they cannot either."""
    rng = np.random.default_rng(3)

    def whole(dim, copies=1, count=1):
        blocks = [(random_hermitian(rng, dim), random_hermitian(rng, dim), copies)]
        return block_family(blocks * count, 1.0)

    odd = complex_sector_family(5, 1.0)
    cases = [
        [whole(3), whole(4)],
        [whole(3), whole(3, copies=2)],
        [odd, whole(7)],
        [odd, complex_sector_family(5, 2.0)],
        [whole(3), whole(3, count=2)],
    ]
    for fams in cases:
        with pytest.raises(ValueError):
            _pair_sums_over(fams)
        assert not any("_pair_sums" in f.memo for f in fams)


_T4 = np.diag([0.0, 1.0, 2.0, 3.0])
_S4 = np.array([[0, 1.0, 0, 0], [1.0, 0, 1.0, 0], [0, 1.0, 0, 1.0], [0, 0, 1.0, 0]])
_EVEN4 = np.array([True, False, True, False])


@pytest.mark.parametrize(
    "t, s, first",
    [
        (_T4 + 0.1 * np.eye(4, k=1) + 0.1 * np.eye(4, k=-1), _S4, _EVEN4),
        (_T4, _S4 + 0.2 * (np.eye(4, k=2) + np.eye(4, k=-2)), _EVEN4),
        (_T4, _S4 + np.diag([0.0, 0.0, 1e-300, 0.0]), _EVEN4),
        (_T4, _S4, _EVEN4[:3]),
        (_T4, _S4, _EVEN4.astype(int)),
    ],
    ids=["t_crosses", "s_within", "s_diagonal", "short_mask", "integer_mask"],
)
def test_a_false_sector_declaration_raises(t, s, first):
    """The declaration is checked exactly: an entry of T between the
    sectors or of S inside one, however small, or a mask that is not a
    boolean of the block's size raises before anything is solved."""
    assert block_family([(t, s, 1)], 1.0).blocks
    with pytest.raises(SectorDeclarationError):
        block_family([(t, s, 1, first)], 1.0)


def _bipartite_family(_):
    """A dense complex block of 7 states in two shuffled halves: T links
    states of one half, S states of opposite halves."""
    rng = np.random.default_rng(5)
    side = rng.permutation(np.arange(7) % 2 == 0)
    same = side[:, None] == side[None, :]
    t, s = random_hermitian(rng, 7), random_hermitian(rng, 7)
    return make_family(np.where(same, t, 0.0), np.where(same, 0.0, s), 1.3)


def _spin_file(path):
    """The single-spin matrix file of ``fidsus verify``: T = -sigma_z,
    S = sigma_x at beta = 1, written to ``path``."""

    def entries(rows):
        return [[[float(x), 0.0] for x in row] for row in rows]

    spec = {"dim": 2, "beta": 1.0, "T": entries([[-1, 0], [0, 1]]), "S": entries([[0, 1], [1, 0]])}
    (path / "m.json").write_text(json.dumps(spec), encoding="utf-8")
    return model_from_file(path / "m.json")


@pytest.mark.parametrize(
    "build",
    [lambda _: single_spin(0.8), lambda _: tfim(4, 1.0, 0.0, 1.0), _bipartite_family, _spin_file],
    ids=["single_spin", "tfim_g0", "bipartite", "matrix_file"],
)
def test_a_found_sign_flip_splits_the_block_into_sectors(build, monkeypatch, tmp_path):
    """A block given without a mask, whose T a diagonal sign flip keeps
    and whose S it flips, is solved by the sectors found in it, and the
    family is sign-odd.  Every report field, log Z and the levels are
    those of the same blocks solved whole, which has no sectors."""
    solved = []
    by_sectors = gibbs._solve_sectors

    def recorded(T, S, first):
        solved.append((T.matrix, S.matrix))
        return by_sectors(T, S, first)

    monkeypatch.setattr(gibbs, "_solve_sectors", recorded)
    fam = build(tmp_path)
    assert len(solved) == len(fam.blocks)
    assert all(b.sectors is not None for b in fam.blocks) and fam.sign_odd
    blocks = [(t, s, b.copies) for (t, s), b in zip(solved, fam.blocks)]
    ref = whole_family(blocks, fam.beta, fam.particle_count, fam.quasi_free)
    assert not ref.sign_odd
    _assert_same_family(fam, ref, same_sign=False)


@pytest.mark.parametrize("n_atoms", [1, 2, 5, 6])
def test_dicke_parity_is_the_sign_flip_of_every_block(n_atoms):
    """Each Dicke block declares its parity (-1)^(n + j - m), the sign
    flip that keeps T and flips S; the breadth-first `_parity` finds that
    same mask in every block, so a family built without the declarations
    holds the same blocks, bit for bit, and both are sign-odd."""
    blocks = list(_dicke_blocks(n_atoms, 6, 2.0, 1.0, 0.7, False))
    for t, s, _, even in blocks:
        assert np.array_equal(_parity(t, s), even)
        d = np.where(even, 1.0, -1.0)
        assert np.array_equal(d[:, None] * t * d, t) and np.array_equal(d[:, None] * s * d, -s)
    declared = block_family(blocks, 1.1)
    found = block_family([b[:3] for b in blocks], 1.1)
    assert declared.sign_odd is found.sign_odd is True
    assert same_blocks(declared, found)


def test_dicke_build_streams_its_blocks():
    """`dicke` forms each block (and each block of the cutoff probe's
    wider family) only when `block_family` asks for it, and keeps only
    levels and the rectangle of S: on full-space N = 16 (9 blocks up to
    221 levels, the probe's up to 289) the build's traced peak is
    4.1 MiB.  Holding every dense block of both families in a list
    peaks at 9.4 MiB, and holding them and every eigenbasis through the
    probe peaked at 20.2 MiB."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffConvergenceWarning)
            dicke(16, 12, 2, 1, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
