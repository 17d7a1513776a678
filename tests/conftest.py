import sys

import numpy as np
import pytest
from hypothesis import strategies as st

import fidsus.cli  # noqa: F401  (loads every fidsus module eig_calls patches)
from fidsus import bounds, fidelity, gibbs, linalg
from fidsus.gibbs import make_family
from fidsus.models import random_pair


@pytest.fixture
def eig_calls(monkeypatch):
    """Record the dimension of every ``eig_hermitian`` call: ``op.dim``,
    the side of each member, once for a stacked call.

    The function is imported by name into its consumer modules, so the
    counter replaces it in every loaded ``fidsus`` module that holds it.
    """
    calls = []
    real = linalg.eig_hermitian

    def counted(op):
        calls.append(op.dim)
        return real(op)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fidsus" and getattr(mod, "eig_hermitian", None) is real:
            monkeypatch.setattr(mod, "eig_hermitian", counted)
    return calls


@pytest.fixture
def commutator_calls(monkeypatch):
    """Record the size of every block whose K S - S K is formed
    (`bounds._commutator_diagonal`)."""
    calls = []
    real = bounds._commutator_diagonal

    def counted(block):
        calls.append(block.levels.size)
        return real(block)

    monkeypatch.setattr(bounds, "_commutator_diagonal", counted)
    return calls


@pytest.fixture
def pair_passes(monkeypatch):
    """Record each family whose pair sums are formed, in the order formed,
    by the one pass that forms them (`fidelity._pair_sums_over`): a family
    alone, the temperatures of one chain or independent families of one
    shape, each added once its `_pair_sums` is filled."""
    passes = []
    real = fidelity._pair_sums_over

    def counted(fams):
        empty = [fam for fam in fams if "_pair_sums" not in fam.memo]
        real(fams)
        passes.extend(fam for fam in empty if "_pair_sums" in fam.memo)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fidsus" and getattr(mod, "_pair_sums_over", None) is real:
            monkeypatch.setattr(mod, "_pair_sums_over", counted)
    return passes


@pytest.fixture
def block_sums_calls(monkeypatch):
    """Record the number of families, temperatures of one chain or
    independent families, of every `fidelity._block_sums` call, one pass
    over the pairs of one block."""
    calls = []
    real = fidelity._block_sums

    def counted(b, beta, *arrays):
        calls.append(np.size(beta))
        return real(b, beta, *arrays)

    monkeypatch.setattr(fidelity, "_block_sums", counted)
    return calls


def seeded_families(master_seed, count, dim_lo, dim_hi, beta_lo, beta_hi):
    """A reproducible stream of random families for property loops."""
    rng = np.random.default_rng(master_seed)
    fams = []
    for _ in range(count):
        dim = int(rng.integers(dim_lo, dim_hi + 1))
        beta = float(np.exp(rng.uniform(np.log(beta_lo), np.log(beta_hi))))
        seed = int(rng.integers(0, 2**31 - 1))
        fams.append(random_pair(dim, seed, 1.0, 1.0, beta))
    return fams


def all_levels(fam):
    """Every level of the family's whole space, ascending, each block's
    once per copy."""
    return np.sort(np.concatenate([np.tile(b.levels, b.copies) for b in fam.blocks]))


def same_blocks(f1, f2):
    """Whether two families hold the same blocks, bit for bit: levels, S in
    the eigenbasis and copies, in the same order."""
    return len(f1.blocks) == len(f2.blocks) and all(
        np.array_equal(b1.levels, b2.levels) and np.array_equal(b1.s_eig, b2.s_eig)
        and b1.copies == b2.copies
        for b1, b2 in zip(f1.blocks, f2.blocks)
    )


def whole_family(blocks, beta, particle_count=1, quasi_free=None):
    """The family of (T_b, S_b, d_b) blocks, any sector mask after them
    ignored, with every block solved whole (`gibbs._solve_whole`), so it
    has no sectors: the reference for the solves by sectors."""
    parts = []
    for t, s, copies, *_ in blocks:
        T, S = linalg.validate_hermitian(t), linalg.validate_hermitian(s)
        parts.append((*gibbs._solve_whole(T, S), copies, None))
    return gibbs._thermalize(beta, parts, particle_count, quasi_free, {})


def complex_sector_family(seed, beta):
    """A one-block family with found sectors and a complex S: T a real
    symmetric matrix on each half of 7 states, S a complex rectangle
    linking the halves only."""
    rng = np.random.default_rng(seed)
    t = np.zeros((7, 7))
    t[:3, :3], t[3:, 3:] = random_hermitian(rng, 3).real, random_hermitian(rng, 4).real
    s = np.zeros((7, 7), dtype=complex)
    s[:3, 3:] = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    s[3:, :3] = s[:3, 3:].conj().T
    return make_family(t, s, beta)


def random_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


@st.composite
def clustered_pairs(
    draw, s_scales=st.just(1.0), sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4)
):
    """Arrays (T, S) and a beta in [1e-3, 1e3], T having clusters of
    levels, exactly degenerate or split by tiny gaps, of the sizes drawn
    from ``sizes``, 1 to 4 clusters of 1 to 3 levels by default; S is a
    random Hermitian matrix times a factor drawn from ``s_scales``.  Both
    operators are drawn either complex or real symmetric, so the family
    runs on the complex or the float64 path."""
    sizes = draw(sizes)
    width = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-4]))
    spacing = draw(st.floats(0.05, 3.0))
    levels = np.concatenate(
        [k * spacing + width * np.arange(size) for k, size in enumerate(sizes)]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())

    def hermitian(scale=1.0):
        h = random_hermitian(rng, levels.size, scale)
        return h.real if real else h

    t = np.diag(levels)
    if draw(st.booleans()):
        q, _ = np.linalg.qr(hermitian())
        t = q @ t @ q.conj().T
    beta = 10.0 ** draw(st.floats(-3.0, 3.0))
    s = hermitian(draw(s_scales))
    return t, s, beta


def clustered_families(s_scales=st.just(1.0)):
    """The families of `clustered_pairs`."""
    return clustered_pairs(s_scales).map(lambda pair: make_family(*pair))


@st.composite
def clustered_stacks(draw):
    """One to four `clustered_pairs` of one cluster layout, so of one
    dimension, real, complex or both: the arrays (T, S, betas) of a stack."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    pairs = draw(st.lists(clustered_pairs(sizes=st.just(sizes)), min_size=1, max_size=4))
    t, s, betas = zip(*pairs)
    return np.stack(t), np.stack(s), list(betas)
